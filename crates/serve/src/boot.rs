//! Environment-driven start-up shared by the server binaries (`serve_stdio`,
//! `serve_tcp`).
//!
//! Two variables control how a server comes up warm:
//!
//! * `CPM_SERVE_WARM` — semicolon-separated `n:alpha:properties[:objective]`
//!   key specs (e.g. `32:0.9:WH+CM;64:0.9:;16:0.9:F:L1`) designed before the
//!   first frame is read.
//! * `CPM_WARM_FILE` — a snapshot file path.  If the file exists its designs
//!   are loaded *before* warming (so previously-designed keys cost zero LP
//!   solves); after warming, the cache contents are written back (atomically,
//!   and only when they changed), so the next process start pays deploy-time
//!   I/O instead of first-request LP latency.  An unusable snapshot degrades
//!   to a cold start and is rewritten — never a failed start.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};

use crate::engine::Engine;

/// Environment variable naming the warm-start snapshot file.
pub const WARM_FILE_ENV: &str = "CPM_WARM_FILE";

/// Environment variable listing the keys to design at start-up.
pub const WARM_KEYS_ENV: &str = "CPM_SERVE_WARM";

/// Environment variable: seconds between background estimate-snapshot flushes
/// (unset or `0` disables the flusher).
pub const FLUSH_SECS_ENV: &str = "CPM_COLLECT_FLUSH_SECS";

/// Environment variable: the file the estimate flusher writes (default
/// `cpm-estimates.json`).
pub const FLUSH_FILE_ENV: &str = "CPM_COLLECT_FLUSH_FILE";

/// What [`bootstrap`] did, for start-up logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootReport {
    /// Designs restored from the snapshot file.
    pub loaded: usize,
    /// Keys listed in `CPM_SERVE_WARM` (resident or designed after warming).
    pub warmed: usize,
    /// Designs written back to the snapshot file (0 when no file is set).
    pub saved: usize,
}

/// Parse one `n:alpha:properties[:objective]` warm-up spec.  The properties
/// field uses the wire grammar ([`std::str::FromStr`] on [`PropertySet`]); the
/// optional objective defaults to `L0`.
pub fn parse_warm_key(spec: &str) -> Result<SpecKey, String> {
    let mut parts = spec.splitn(4, ':');
    let n: usize = parts
        .next()
        .and_then(|p| p.trim().parse().ok())
        .ok_or_else(|| format!("bad group size in warm spec {spec:?}"))?;
    let alpha: f64 = parts
        .next()
        .and_then(|p| p.trim().parse().ok())
        .ok_or_else(|| format!("bad alpha in warm spec {spec:?}"))?;
    let alpha = Alpha::new(alpha).map_err(|e| e.to_string())?;
    let properties: PropertySet = match parts.next() {
        Some(list) => list
            .parse()
            .map_err(|e| format!("{e} in warm spec {spec:?}"))?,
        None => PropertySet::empty(),
    };
    let objective = match parts.next() {
        Some(name) => ObjectiveKey::parse(name)
            .ok_or_else(|| format!("bad objective {name:?} in warm spec {spec:?}"))?,
        None => ObjectiveKey::L0,
    };
    Ok(SpecKey::with_objective(n, alpha, properties, objective))
}

/// Parse a semicolon-separated list of warm-up specs (empty entries skipped).
pub fn parse_warm_keys(list: &str) -> Result<Vec<SpecKey>, String> {
    list.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(parse_warm_key)
        .collect()
}

/// Bring an engine up warm from the environment: load `CPM_WARM_FILE` (if the
/// file exists), design every `CPM_SERVE_WARM` key not already resident, and
/// write the cache back to `CPM_WARM_FILE` (if set).  Progress goes to stderr.
///
/// α sweeps in the warm list are cheap: [`crate::cache::DesignCache::warm`]
/// groups the keys by `(n, properties, objective)` family and solves each
/// family in α order, chaining dual-simplex warm starts — and designs
/// restored from the snapshot file carry their optimal bases, so even keys
/// *near* (not equal to) a snapshotted α start warm.
pub fn bootstrap(engine: &Engine) -> io::Result<BootReport> {
    // Start the optional CPM_METRICS_DUMP stderr dumper with the server, so
    // both binaries get periodic scrapes without per-binary wiring.
    cpm_obs::start_metrics_dump_from_env();
    let _boot_span = cpm_obs::span!("boot", "bootstrap");
    let mut report = BootReport::default();
    let warm_file = std::env::var(WARM_FILE_ENV).ok().filter(|p| !p.is_empty());
    // Whether an existing warm file was read back successfully; a missing or
    // unusable file must be (re)written even if nothing new is designed.
    let mut loaded_cleanly = false;

    if let Some(path) = &warm_file {
        if std::path::Path::new(path).exists() {
            // A bad snapshot degrades to a cold start, never a failed start —
            // the warm file is an optimisation, not a dependency.
            let load_started = std::time::Instant::now();
            match engine.load_snapshot(path) {
                Ok(loaded) => {
                    report.loaded = loaded;
                    loaded_cleanly = true;
                    cpm_obs::histogram!("cpm_boot_snapshot_load_nanos")
                        .record_duration(load_started.elapsed());
                    eprintln!("cpm-serve: loaded {loaded} design(s) from {path}");
                }
                Err(error) => {
                    eprintln!(
                        "cpm-serve: ignoring unusable warm file {path} ({error}); \
                         starting cold and rewriting it"
                    );
                }
            }
        }
    }

    if let Ok(warm_spec) = std::env::var(WARM_KEYS_ENV) {
        let keys = parse_warm_keys(&warm_spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if !keys.is_empty() {
            eprintln!("cpm-serve: warming {} key(s)...", keys.len());
            engine
                .warm(&keys)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            report.warmed = keys.len();
            cpm_obs::counter!("cpm_boot_warm_keys_total").add(keys.len() as u64);
            let stats = engine.cache_stats();
            eprintln!(
                "cpm-serve: warm complete ({} designs, {} LP solves, {:.1} ms designing)",
                stats.design_solves,
                stats.lp_solves,
                stats.design_nanos as f64 / 1e6,
            );
        }
    }

    if let Some(path) = &warm_file {
        // Rewrite only when the file's contents would actually change: a fresh
        // design happened, or the file was absent/unusable.  A restart that
        // merely reloads its own snapshot must not re-open the write window.
        // The merging writer carries over on-disk designs that did not fit
        // this process's cache capacity, and a failed save is a warning — the
        // warm file is an optimisation, never a startup dependency.
        if !loaded_cleanly || engine.cache_stats().design_solves > 0 {
            let save_started = std::time::Instant::now();
            match engine.cache().save_snapshot_file_merging(path) {
                Ok(saved) => {
                    report.saved = saved;
                    cpm_obs::histogram!("cpm_boot_snapshot_save_nanos")
                        .record_duration(save_started.elapsed());
                    eprintln!("cpm-serve: saved {saved} design(s) to {path}");
                }
                Err(error) => {
                    eprintln!("cpm-serve: could not save warm file {path} ({error}); continuing");
                }
            }
        }
    }

    Ok(report)
}

/// A running background estimate flusher.  Dropping (or [`stop`ping]
/// (FlusherHandle::stop)) the handle wakes the thread, runs one final flush,
/// and joins it — collected reports are never lost to a clean shutdown.
pub struct FlusherHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl FlusherHandle {
    /// Signal the flusher, wait for its final flush, and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (stopped, wake) = &*self.stop;
            *stopped.lock().expect("flusher flag poisoned") = true;
            wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for FlusherHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the background estimate-snapshot flusher if `CPM_COLLECT_FLUSH_SECS`
/// asks for one: every period, every key the collector has reports for is
/// estimated through its designed mechanism and the whole set is written
/// atomically to `CPM_COLLECT_FLUSH_FILE` (default `cpm-estimates.json`), so
/// an operator — or a crash-restarted process — always has a recent view of
/// the collected frequencies without issuing `estimate` ops.
pub fn start_flusher_from_env(engine: &Arc<Engine>) -> Option<FlusherHandle> {
    let period_secs: u64 = std::env::var(FLUSH_SECS_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    if period_secs == 0 {
        return None;
    }
    let path = std::env::var(FLUSH_FILE_ENV)
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| "cpm-estimates.json".to_string());
    eprintln!("cpm-serve: flushing estimates to {path} every {period_secs}s");
    Some(start_flusher(
        Arc::clone(engine),
        path,
        Duration::from_secs(period_secs),
    ))
}

/// Start a flusher with an explicit path and period (the env-driven entry is
/// [`start_flusher_from_env`]).
pub fn start_flusher(engine: Arc<Engine>, path: String, period: Duration) -> FlusherHandle {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let stop_for_thread = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("cpm-collect-flush".to_string())
        .spawn(move || {
            let (stopped, wake) = &*stop_for_thread;
            loop {
                let mut flag = stopped.lock().expect("flusher flag poisoned");
                while !*flag {
                    let (next, timeout) = wake
                        .wait_timeout(flag, period)
                        .expect("flusher flag poisoned");
                    flag = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
                let finishing = *flag;
                drop(flag);
                flush_estimates(&engine, &path);
                if finishing {
                    return;
                }
            }
        })
        .expect("spawning the flusher thread");
    FlusherHandle {
        stop,
        handle: Some(handle),
    }
}

/// One flush pass: estimate every collected key and write the snapshot file.
/// Failures are logged and counted, never fatal — the flusher is an
/// observability aid, not a correctness dependency.
///
/// Keys whose group size exceeds [`crate::proto::MAX_WIRE_N`] are skipped,
/// not designed: the wire paths already refuse to ingest them, but a library
/// caller can feed the engine's collector directly, and the flusher must not
/// be the place where an un-designable key turns into an `(n+1)²` allocation.
fn flush_estimates(engine: &Engine, path: &str) {
    let flush_started = std::time::Instant::now();
    let keys = engine.collector().keys();
    let mut snapshots = Vec::with_capacity(keys.len());
    for key in keys {
        if key.n > crate::proto::MAX_WIRE_N {
            cpm_obs::counter!("cpm_collect_flush_skipped_total").inc();
            continue;
        }
        let Some(observed) = engine.collector().observed(&key) else {
            continue;
        };
        match engine
            .design(&key)
            .map_err(|e| e.to_string())
            .and_then(|design| {
                cpm_collect::estimate_from_design(&design, &observed).map_err(|e| e.to_string())
            }) {
            Ok(estimates) => {
                snapshots.push(cpm_collect::EstimateSnapshot::from_estimates(
                    key, &estimates,
                ));
            }
            Err(error) => {
                // A singular design (e.g. Uniform) has nothing to invert;
                // skip the key rather than aborting the whole flush.
                cpm_obs::counter!("cpm_collect_flush_errors_total").inc();
                cpm_obs::error("collect", format!("flush estimate failed: {error}"));
            }
        }
    }
    if snapshots.is_empty() {
        return;
    }
    match cpm_collect::snapshot::write_file(path, &snapshots) {
        Ok(()) => {
            cpm_obs::counter!("cpm_collect_flushes_total").inc();
            cpm_obs::histogram!("cpm_collect_flush_nanos").record_duration(flush_started.elapsed());
        }
        Err(error) => {
            cpm_obs::counter!("cpm_collect_flush_errors_total").inc();
            eprintln!("cpm-serve: could not flush estimates to {path} ({error}); continuing");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::Property;

    #[test]
    fn warm_specs_parse_the_documented_grammar() {
        let key = parse_warm_key("32:0.9:WH+CM").unwrap();
        assert_eq!(key.n, 32);
        assert_eq!(key.alpha_value().value(), 0.9);
        assert_eq!(
            key.properties,
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::ColumnMonotonicity)
        );
        assert_eq!(key.objective, ObjectiveKey::L0);

        // Empty property list and explicit objective.
        let key = parse_warm_key("64:0.9:").unwrap();
        assert_eq!(key.properties, PropertySet::empty());
        let key = parse_warm_key("16:0.9:F:L1").unwrap();
        assert_eq!(key.objective, ObjectiveKey::L1);

        assert!(parse_warm_key("x:0.9:").is_err());
        assert!(parse_warm_key("8:2.0:").is_err());
        assert!(parse_warm_key("8:0.9:XX").is_err());
        assert!(parse_warm_key("8:0.9::nope").is_err());

        let keys = parse_warm_keys("32:0.9:WH+CM; 64:0.9: ;").unwrap();
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn flusher_skips_keys_beyond_the_serving_ceiling() {
        let engine = Engine::with_defaults();
        // The collector itself admits keys up to cpm_collect::REPORT_MAX_N
        // (library callers ingest directly), but the flusher must not design
        // them — this key would otherwise cost an (n+1)² design matrix.
        let oversized = SpecKey::new(
            crate::proto::MAX_WIRE_N + 1,
            Alpha::new(0.5).unwrap(),
            PropertySet::empty(),
        );
        engine
            .collector()
            .ingest_batch(&oversized, std::iter::once(0));
        let good = SpecKey::new(4, Alpha::new(0.5).unwrap(), PropertySet::empty());
        engine
            .collector()
            .ingest_batch(&good, (0..100).map(|i| if i < 60 { 0 } else { 4 }));
        let path = std::env::temp_dir().join(format!(
            "cpm-flush-skip-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        flush_estimates(&engine, &path.to_string_lossy());
        let snapshots = cpm_collect::snapshot::read_file(&path).unwrap();
        assert_eq!(snapshots.len(), 1, "only the designable key is flushed");
        assert_eq!(snapshots[0].key, good);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flusher_writes_estimates_and_flushes_once_more_on_stop() {
        let engine = Arc::new(Engine::with_defaults());
        let key = SpecKey::new(4, Alpha::new(0.5).unwrap(), PropertySet::empty());
        engine
            .collector()
            .ingest_batch(&key, (0..100).map(|i| if i < 60 { 0 } else { 4 }));
        let path = std::env::temp_dir().join(format!(
            "cpm-flush-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        // A long period: the only flush is the final one the stop triggers.
        let flusher = start_flusher(
            Arc::clone(&engine),
            path.to_string_lossy().into_owned(),
            Duration::from_secs(3600),
        );
        flusher.stop();
        let snapshots = cpm_collect::snapshot::read_file(&path).unwrap();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].key, key);
        assert_eq!(snapshots[0].total_reports, 100);
        let _ = std::fs::remove_file(&path);
    }
}
