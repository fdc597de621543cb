//! `cpm-perfbench`: drive a spawned `serve_tcp` over loopback TCP with one of
//! three seeded traffic mixes, check its answers, and print every metric.
//!
//! ```text
//! cpm-perfbench --workload hot_small|ldp_round|cold_storm --seed N
//!               --seconds S --trace 0|1 --server PATH
//! ```
//!
//! With `--trace 0` the last stdout line is one JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
//! traced run (client spans plus an in-process layer replay).  Every run also
//! writes `.bench_out/BENCH_<label>.json`.  See `perfbench/README.md`.

mod client;
mod replay;
mod schedule;
mod server;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

/// End-to-end metrics and their units, in report order.
const E2E_UNITS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("privatize_p50_us", "us"),
    ("draws_per_s", "draws/s"),
    ("server_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server: PathBuf::from(get("server")?),
    })
}

fn metric(value: f64, unit: &str) -> Value {
    let value = if value.is_finite() {
        Value::Number(value)
    } else {
        Value::Null
    };
    obj(vec![("value", value), ("unit", Value::String(unit.into()))])
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn strings(list: &[String]) -> Value {
    Value::Array(list.iter().cloned().map(Value::String).collect())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let out_dir = PathBuf::from(".bench_out");
    let label = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let run_dir = out_dir.join(format!("run-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let hot_snapshot = workloads::hot_snapshot(&out_dir)?;
    let ctx = workloads::Ctx {
        server_bin: args.server.clone(),
        dir: run_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        hot_snapshot,
    };

    // A run whose generator fell behind measured the client, not the server:
    // it is made again once on a fresh server, and only a second invalid run
    // is reported as invalid.
    let mut retried = 0;
    let outcome = loop {
        let outcome = workloads::run(&ctx, &args.workload);
        match outcome {
            Ok(outcome) if !outcome.invalid.is_empty() && retried == 0 => {
                for message in &outcome.invalid {
                    println!("INVALID RUN, made again: {message}");
                }
                retried += 1;
            }
            other => break other,
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = outcome?;

    let mut metrics: Vec<(String, Value)> = Vec::new();
    println!(
        "workload {} seed {} ({} s measured)",
        args.workload, args.seed, args.seconds
    );
    for &(name, unit) in E2E_UNITS {
        let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:20} {value:>14.3} {unit}");
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:20} {:>14.6} ratio ({} failed of {} attempted)",
        "fail_ratio", fail_ratio, outcome.failed, outcome.attempted
    );
    let layers = if args.trace {
        let layers = replay::traced(&ctx, &args.workload, &outcome, &out_dir, &label)?;
        for (name, (value, unit)) in &layers {
            println!("  {name:34} {value:>14.3} {unit}");
            metrics.push((name.clone(), metric(*value, unit)));
        }
        Some(layers)
    } else {
        for &(name, unit) in E2E_UNITS {
            let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            metrics.push((name.to_string(), metric(value, unit)));
        }
        None
    };
    for message in &outcome.errors {
        println!("CHECK FAILED: {message}");
    }
    for message in &outcome.invalid {
        println!("INVALID RUN: {message}");
    }
    let correct = outcome.errors.is_empty();
    let valid = outcome.invalid.is_empty();

    let mut e2e: Vec<(String, Value)> = E2E_UNITS
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            (name.to_string(), metric(value, unit))
        })
        .collect();
    e2e.push(("fail_ratio".into(), metric(fail_ratio, "ratio")));
    let live = outcome
        .live
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                if v.is_finite() {
                    Value::Number(v)
                } else {
                    Value::Null
                },
            )
        })
        .collect();
    let per_layer = match layers {
        Some(layers) => Value::Object(
            layers
                .into_iter()
                .map(|(k, (v, u))| (k, metric(v, &u)))
                .collect(),
        ),
        None => Value::Null,
    };
    let record = obj(vec![
        ("label", Value::String(label.clone())),
        ("workload", Value::String(args.workload.clone())),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(correct)),
        ("valid", Value::Bool(valid)),
        ("invalid_retries", Value::Number(retried as f64)),
        (
            "instances",
            Value::Array(
                outcome
                    .instances
                    .iter()
                    .map(|&(p50, draws)| {
                        obj(vec![
                            ("privatize_p50_us", Value::Number(p50)),
                            ("draws_per_s", Value::Number(draws)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("end_to_end", Value::Object(e2e)),
        ("live_layers", Value::Object(live)),
        ("per_layer", per_layer),
        ("layer_map", replay::layer_map()),
        ("errors", strings(&outcome.errors)),
        ("invalid", strings(&outcome.invalid)),
    ]);
    let path = out_dir.join(format!("BENCH_{label}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serializable"),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result file: {}", path.display());

    if !valid {
        // A client-bound run measured the generator, not the server: report
        // it as unusable rather than as a slow server.
        return Ok(ExitCode::from(3));
    }
    if let Some((name, _)) = metrics.iter().find(|(_, v)| match v {
        Value::Object(fields) => !matches!(fields[0].1, Value::Number(x) if x.is_finite()),
        _ => true,
    }) {
        return Err(format!("metric {name} was not measured"));
    }
    let last = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&last).expect("serializable"));
    Ok(ExitCode::SUCCESS)
}
