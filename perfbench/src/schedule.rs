//! Seeded generation of every workload input.  Everything the benchmark sends
//! is a pure function of `--seed` (and the run length), so two runs with the
//! same seed offer the server byte-identical traffic on the same schedule.

use cpm_core::{Alpha, ObjectiveKey, Property, PropertySet, SpecKey};

/// SplitMix64: a small, fast, fully specified generator, so a schedule does
/// not depend on any library's RNG stream staying the same across versions.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_f64() * bound as f64) as usize % bound.max(1)
    }
}

/// Cumulative Zipf(`exponent`) weights over ranks `0..k`.
pub fn zipf_cdf(k: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=k).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw a rank from a cumulative table.
pub fn sample_cdf(cdf: &[f64], rng: &mut Rng64) -> usize {
    let u = rng.next_f64();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn alpha(value: f64) -> Alpha {
    Alpha::new(value).expect("benchmark α values lie in (0, 1]")
}

fn props(list: &[Property]) -> PropertySet {
    list.iter()
        .fold(PropertySet::empty(), |set, &p| set.with(p))
}

/// The 16 resident keys of `hot_small` and `cold_storm`: `serve_probe`'s key
/// mix — n ∈ {8, 12, 16, 24, 32} crossed with properties {∅, WH, CM, F} at
/// α = 0.9 — ordered by Zipf rank.
pub fn hot_keys() -> Vec<SpecKey> {
    let properties = [
        PropertySet::empty(),
        props(&[Property::WeakHonesty]),
        props(&[Property::ColumnMonotonicity]),
        props(&[Property::Fairness]),
    ];
    (0..16)
        .map(|rank| {
            let n = [32, 16, 24, 8, 12][rank % 5];
            SpecKey::new(n, alpha(0.9), properties[rank % properties.len()])
        })
        .collect()
}

/// The four `ldp_round` keys at n = 32: two LP designs (WH+CM, CM), one
/// closed-form GM, one weakly honest.  `CPM_SERVE_WARM` designs them at boot.
pub fn ldp_keys() -> Vec<SpecKey> {
    vec![
        SpecKey::new(32, alpha(0.9), PropertySet::empty()),
        SpecKey::new(
            32,
            alpha(0.9),
            props(&[Property::WeakHonesty, Property::ColumnMonotonicity]),
        ),
        SpecKey::new(32, alpha(0.9), props(&[Property::WeakHonesty])),
        SpecKey::new(32, alpha(0.9), props(&[Property::ColumnMonotonicity])),
    ]
}

/// A `CPM_SERVE_WARM` spec for `keys` (`n:alpha:properties[:objective]`).
pub fn warm_spec(keys: &[SpecKey]) -> String {
    keys.iter()
        .map(|key| {
            let properties: Vec<&str> = key.properties.iter().map(|p| p.short_name()).collect();
            format!(
                "{}:{}:{}:{}",
                key.n,
                key.alpha_value().value(),
                properties.join("+"),
                key.objective
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// The cold LP keys of the storm, before seeding its order: WH+CM and CM at
/// n ∈ 16..=48 over an α grid with α-neighbours (so family warm-seeding
/// engages), and unconstrained L1 / L2 objectives at n ∈ {64, 96, 128}, which
/// take the crash-seeded route.  WH+CM stays at n ≤ 48: n = 96 alone takes
/// seconds.
pub fn storm_key_set() -> Vec<SpecKey> {
    let wh_cm = props(&[Property::WeakHonesty, Property::ColumnMonotonicity]);
    let cm = props(&[Property::ColumnMonotonicity]);
    let mut keys = Vec::new();
    for &(n, alphas) in &[
        (16, &[0.8, 0.85, 0.9][..]),
        (24, &[0.8, 0.9][..]),
        (32, &[0.8, 0.85, 0.9][..]),
        (40, &[0.85, 0.9][..]),
        (48, &[0.85, 0.9][..]),
    ] {
        for &a in alphas {
            keys.push(SpecKey::new(n, alpha(a), wh_cm));
        }
    }
    for &(n, alphas) in &[
        (16, &[0.8, 0.9][..]),
        (24, &[0.85, 0.9][..]),
        (32, &[0.8, 0.9][..]),
        (40, &[0.85, 0.9][..]),
        (48, &[0.9][..]),
    ] {
        for &a in alphas {
            keys.push(SpecKey::new(n, alpha(a), cm));
        }
    }
    for objective in [ObjectiveKey::L1, ObjectiveKey::L2] {
        for n in [64, 96, 128] {
            keys.push(SpecKey::with_objective(
                n,
                alpha(0.9),
                PropertySet::empty(),
                objective,
            ));
        }
    }
    keys
}

/// The storm's key list in its seeded order (a Fisher–Yates shuffle).
pub fn storm_keys(seed: u64) -> Vec<SpecKey> {
    let mut keys = storm_key_set();
    let mut rng = Rng64::new(seed, 3);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    keys
}

/// One scheduled privatize request of an open-loop stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// When it is due, in nanoseconds after the stream starts.
    pub due_ns: u64,
    /// Index into the stream's key list.
    pub key: usize,
    /// The true counts to privatize.
    pub inputs: Vec<u32>,
}

/// An open-loop privatize stream: evenly spaced at `rate` requests per second
/// for `seconds`, the first request `phase` (in `[0, 1)`) of an interval in.
/// Each request is batch-1 with probability 0.9 and batch-16 otherwise; its
/// key is Zipf(1.1) over `keys`; its inputs are uniform in `0..=n`.
pub fn privatize_stream(
    seed: u64,
    stream: u64,
    keys: &[SpecKey],
    rate: f64,
    seconds: f64,
    phase: f64,
) -> Vec<Planned> {
    let mut rng = Rng64::new(seed, 100 + stream);
    let cdf = zipf_cdf(keys.len(), 1.1);
    let interval = 1e9 / rate;
    let count = (rate * seconds).floor() as usize;
    (0..count)
        .map(|i| {
            let key = sample_cdf(&cdf, &mut rng);
            let batch = if rng.next_f64() < 0.9 { 1 } else { 16 };
            let n = keys[key].n;
            let inputs = (0..batch).map(|_| rng.below(n + 1) as u32).collect();
            Planned {
                due_ns: ((i as f64 + phase) * interval) as u64,
                key,
                inputs,
            }
        })
        .collect()
}

/// The `ldp_round` population: an endless, seeded sequence of privatize
/// batches.  Each batch picks a key Zipf(1.1) over the four keys and draws
/// `batch` inputs Zipf(1.0) over `0..=n` (small counts are common).
#[derive(Debug, Clone)]
pub struct Population {
    rng: Rng64,
    key_cdf: Vec<f64>,
    input_cdfs: Vec<Vec<f64>>,
    batch: usize,
}

impl Population {
    pub fn new(seed: u64, keys: &[SpecKey], batch: usize) -> Self {
        Population {
            rng: Rng64::new(seed, 7),
            key_cdf: zipf_cdf(keys.len(), 1.1),
            input_cdfs: keys.iter().map(|k| zipf_cdf(k.n + 1, 1.0)).collect(),
            batch,
        }
    }

    /// The next batch: `(key index, inputs)`.
    pub fn next_batch(&mut self) -> (usize, Vec<u32>) {
        let key = sample_cdf(&self.key_cdf, &mut self.rng);
        let cdf = &self.input_cdfs[key];
        let inputs = (0..self.batch)
            .map(|_| sample_cdf(cdf, &mut self.rng) as u32)
            .collect();
        (key, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_depend_only_on_the_seed() {
        let keys = hot_keys();
        let a = privatize_stream(11, 0, &keys, 1000.0, 0.5, 0.0);
        let b = privatize_stream(11, 0, &keys, 1000.0, 0.5, 0.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let c = privatize_stream(12, 0, &keys, 1000.0, 0.5, 0.0);
        assert_ne!(a, c, "another seed gives other traffic");
        // The due times are the schedule, not the seed's business.
        assert!(a.iter().zip(&c).all(|(x, y)| x.due_ns == y.due_ns));

        assert_eq!(storm_keys(5), storm_keys(5));
        assert_ne!(storm_keys(5), storm_keys(6));

        let ldp = ldp_keys();
        let mut p = Population::new(9, &ldp, 64);
        let mut q = Population::new(9, &ldp, 64);
        let mut r = Population::new(10, &ldp, 64);
        let (pa, qa, ra): (Vec<_>, Vec<_>, Vec<_>) = (0..20)
            .map(|_| (p.next_batch(), q.next_batch(), r.next_batch()))
            .fold((vec![], vec![], vec![]), |mut acc, (x, y, z)| {
                acc.0.push(x);
                acc.1.push(y);
                acc.2.push(z);
                acc
            });
        assert_eq!(pa, qa);
        assert_ne!(pa, ra);
    }

    #[test]
    fn streams_have_the_stated_mix() {
        let keys = hot_keys();
        let plan = privatize_stream(1, 0, &keys, 20_000.0, 1.0, 0.5);
        assert_eq!(plan.len(), 20_000);
        let b16 = plan.iter().filter(|p| p.inputs.len() == 16).count();
        assert!((1_700..2_300).contains(&b16), "about 10% batch-16: {b16}");
        assert!(plan
            .iter()
            .all(|p| p.inputs.iter().all(|&i| i as usize <= keys[p.key].n)));
        // Zipf: rank 0 is the most requested key.
        let rank0 = plan.iter().filter(|p| p.key == 0).count();
        let rank15 = plan.iter().filter(|p| p.key == 15).count();
        assert!(rank0 > 5 * rank15);
        assert_eq!(plan[0].due_ns, 25_000);
    }

    #[test]
    fn storm_is_a_permutation_of_the_key_set() {
        let mut shuffled = storm_keys(42);
        let mut set = storm_key_set();
        shuffled.sort();
        set.sort();
        assert_eq!(shuffled, set);
        assert_eq!(set.len(), 27);
    }
}
