//! Cache keys identifying one mechanism design.
//!
//! The serving layer used to define its own `MechanismKey`; the key type now
//! lives in the core crate as [`cpm_core::SpecKey`] — the bit-exact projection
//! of a [`cpm_core::MechanismSpec`] — so the cache, the wire front end, and the
//! offline design path all agree on what identifies a design.  This module
//! re-exports it (plus [`cpm_core::ObjectiveKey`]).

pub use cpm_core::{ObjectiveKey, SpecKey};

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, Property, PropertySet};

    #[test]
    fn the_serve_key_is_the_core_spec_key() {
        // One key type across the workspace: what `cpm-serve` hands the cache is
        // exactly what `MechanismSpec::key()` produces.
        let alpha = Alpha::new(0.9).unwrap();
        let properties = PropertySet::empty().with(Property::WeakHonesty);
        let key = SpecKey::with_objective(8, alpha, properties, ObjectiveKey::L1);
        let spec = key.spec().build().unwrap();
        assert_eq!(spec.key(), key);
    }
}
