//! The repository benchmark: five fits-the-cores workloads measured end to
//! end through `aba_workload::run_cell`, and a traced pass that prices every
//! layer underneath from outside.  See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]  all workloads, both passes
//! benchmark --aa [--seed N] [--seconds S] [--smoke]          two full sets, compared
//! benchmark compare A.json B.json
//! benchmark gate <roster key>                                point the gate at one backend
//! benchmark describe                                         print BENCHMARK.json
//! benchmark metrics                                          every metric, and what it should move
//! ```

mod e2e;
mod gate;
mod json;
mod ladder;
mod lanes;
mod report;
mod schema;
mod seed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use e2e::{run_cycle, throughput, LaneRounds, Plan};
use lanes::{WorkloadDef, WORKLOADS};
use report::{Host, Reported, RunResult};
use seed::Rng;
use stats::{median, midmean, quiet_decile, Better};
use trace::Tracer;

/// Set-ups per untraced run: one before the first timed round, the rest
/// spread through the run.  `setup_s` is their quiet decile — the fastest
/// one.  A set-up is ~0.1 s, a third of it a multi-threaded gate, so the
/// host's slow stretches move its median by 20–30 % between identical runs.
const SETUPS: usize = 10;

/// Share of a traced run's budget the ladder gets; the lane rounds get the
/// rest.
const LADDER_SHARE: f64 = 0.6;

/// Where run artefacts (trace, result documents) go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How long and how thoroughly one run measures.
#[derive(Debug, Clone, Copy)]
struct Effort {
    seed: u64,
    seconds: f64,
    setups: usize,
    /// Scale on every workload's round size (`--smoke` shrinks rounds).
    ops_scale: f64,
}

fn budget(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}

/// The untraced end-to-end pass of one workload.
fn run_end_to_end(
    def: &'static WorkloadDef,
    host: &Host,
    effort: Effort,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let timed_set_up = || -> Result<(Plan, f64), String> {
        let t0 = Instant::now();
        let plan = Plan::new(def, effort.seed, host.tn, effort.ops_scale);
        plan.set_up(false)?;
        Ok((plan, t0.elapsed().as_secs_f64()))
    };
    let (plan, first) = timed_set_up()?;
    let mut setups = vec![first];

    // The remaining set-ups are spread evenly through the timed rounds: ten
    // in a row at the start would all sit in the slow stretch that follows
    // process start on this kind of host.
    let lanes = plan.lanes(false);
    let mut rng = Rng::new(effort.seed);
    let mut rounds = vec![LaneRounds::default(); def.lanes.len()];
    let total = budget(effort.seconds);
    let timed = Instant::now();
    loop {
        run_cycle(&plan, &lanes, &mut rng, None, &mut rounds);
        let elapsed = timed.elapsed();
        if setups.len() < effort.setups
            && elapsed >= total.mul_f64(setups.len() as f64 / effort.setups as f64)
        {
            setups.push(timed_set_up()?.1);
        }
        if elapsed >= total {
            break;
        }
    }

    let ops = throughput(&plan, &rounds);
    let metrics = vec![
        Reported::new("setup_s", "s", quiet_decile(&setups, Better::Lower), None),
        Reported::new("ops_per_s", "ops/s", ops.value, Some(ops.spread)),
    ];
    let (samples, p99_supported) = e2e::latency_samples_per_round(&plan);
    assert!(
        p99_supported,
        "{}: {samples} samples a round cannot carry p99",
        def.name
    );
    let cycles = lanes
        .iter()
        .map(|&k| rounds[k].ops_per_s.len())
        .min()
        .unwrap_or(0);
    Ok(RunResult {
        workload: def.name,
        traced: false,
        attempted: lanes.iter().map(|&k| rounds[k].attempted).sum(),
        failed: lanes.iter().map(|&k| rounds[k].failed).sum(),
        wall_s: started.elapsed().as_secs_f64(),
        notes: format!(
            "{} threads, {} lanes x {cycles} rounds, {samples} latency samples a round, {} set-ups",
            plan.threads,
            lanes.len(),
            setups.len()
        ),
        metrics,
    })
}

/// The traced pass of one workload: the ladder, then all five lanes with
/// every other cycle's rounds wrapped in spans.
fn run_traced(def: &'static WorkloadDef, host: &Host, effort: Effort) -> Result<RunResult, String> {
    let started = Instant::now();
    let plan = Plan::new(def, effort.seed, host.tn, effort.ops_scale);
    plan.set_up(true)?;

    let mut tracer = Tracer::new(def.name);
    let root = tracer.open("traced-pass", "", None);

    let span = tracer.open("ladder", "", Some(root));
    let objects = ladder::Objects::new(host.tn, effort.seed);
    let rungs = ladder::measure(
        &objects,
        budget(effort.seconds * LADDER_SHARE),
        &mut tracer,
        span,
    );
    tracer.close(span);
    let mut values: BTreeMap<String, f64> = ladder::metrics(&rungs);
    values.extend(objects.core_counts());

    // Lanes: every iteration runs one cycle with each round wrapped in a span
    // and one bare cycle, alternating which goes first; the paired difference
    // between the two is the tracing overhead.
    let span = tracer.open("lanes", "", Some(root));
    let lanes = plan.lanes(true);
    let mut rng = Rng::new(effort.seed);
    let mut spanned = vec![LaneRounds::default(); def.lanes.len()];
    let mut bare = vec![LaneRounds::default(); def.lanes.len()];
    let timed = Instant::now();
    for iteration in 0.. {
        for spanned_cycle in [iteration % 2 == 0, iteration % 2 != 0] {
            if spanned_cycle {
                run_cycle(
                    &plan,
                    &lanes,
                    &mut rng,
                    Some((&mut tracer, span)),
                    &mut spanned,
                );
            } else {
                run_cycle(&plan, &lanes, &mut rng, None, &mut bare);
            }
        }
        if timed.elapsed() >= budget(effort.seconds * (1.0 - LADDER_SHARE)) {
            break;
        }
    }
    tracer.close(span);
    tracer.close(root);

    let paired: Vec<f64> = lanes
        .iter()
        .flat_map(|&k| {
            bare[k]
                .ops_per_s
                .iter()
                .zip(&spanned[k].ops_per_s)
                .map(|(bare, spanned)| bare / spanned)
        })
        .collect();
    values.insert("trace.overhead_share".into(), median(&paired) - 1.0);
    let (mut attempted, mut failed) = (0, 0);
    for &k in &lanes {
        let mut all = spanned[k].clone();
        all.merge(&bare[k]);
        values.insert(
            format!("lane.{k}.ops_per_s"),
            quiet_decile(&all.ops_per_s, Better::Higher),
        );
        values.insert(
            format!("lane.{k}.p50_ns"),
            quiet_decile(&all.p50_ns, Better::Lower),
        );
        // The tail is the disturbance: a quiet decile would hide it.
        values.insert(format!("lane.{k}.p99_ns"), midmean(&all.p99_ns));
        values.insert(
            format!("lane.{k}.failed_share"),
            all.failed as f64 / all.attempted as f64,
        );
        values.insert(
            format!("lane.{k}.peak_unreclaimed"),
            all.peak_unreclaimed as f64,
        );
        if def.lanes[k].role == lanes::Role::EndToEnd {
            attempted += all.attempted;
            failed += all.failed;
        }
    }

    let path = out_dir().join("trace.json");
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let metrics = schema::per_layer()
        .into_iter()
        .map(|m| {
            let value = values
                .remove(&m.name)
                .unwrap_or_else(|| panic!("declared metric {} was not measured", m.name));
            Reported::new(&m.name, m.unit, value, None)
        })
        .collect();
    assert!(
        values.is_empty(),
        "measured but undeclared: {:?}",
        values.keys()
    );
    let lane_names: Vec<String> = def
        .lanes
        .iter()
        .enumerate()
        .map(|(k, l)| format!("lane.{k}={}", l.name))
        .collect();
    Ok(RunResult {
        workload: def.name,
        traced: true,
        attempted,
        failed,
        wall_s: started.elapsed().as_secs_f64(),
        notes: format!(
            "{}; {} spans in {}",
            lane_names.join(" "),
            tracer.spans().len(),
            path.display()
        ),
        metrics,
    })
}

fn run_workload(
    def: &'static WorkloadDef,
    host: &Host,
    effort: Effort,
    traced: bool,
) -> Result<RunResult, String> {
    if traced {
        run_traced(def, host, effort)
    } else {
        run_end_to_end(def, host, effort)
    }
}

/// Every workload, untraced then traced: one result document.
fn run_all(host: &Host, effort: Effort) -> Result<report::Document, String> {
    let mut runs = Vec::new();
    for def in WORKLOADS {
        for traced in [false, true] {
            let run = run_workload(def, host, effort, traced)?;
            print!("{}", run.render());
            runs.push(run);
        }
    }
    Ok(report::Document {
        host: host.clone(),
        seed: effort.seed,
        seconds: effort.seconds,
        runs,
    })
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    smoke: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
        smoke: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.flags.insert(arg, value);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

impl Args {
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag} {text:?} is not a number")),
        }
    }

    fn effort(&self) -> Result<Effort, String> {
        let seconds = self.number("--seconds", schema::RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds} is outside (0, 60]"));
        }
        let full = Effort {
            seed: self.number("--seed", 1)?,
            seconds,
            setups: SETUPS,
            ops_scale: 1.0,
        };
        Ok(if self.smoke {
            // Plumbing check for CI: ten runs in under ten seconds.
            Effort {
                seconds: 0.3,
                setups: 1,
                ops_scale: 0.2,
                ..full
            }
        } else {
            full
        })
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let command = args.positional.first().map_or("all", String::as_str);
    match command {
        "describe" => {
            print!("{}", schema::benchmark_json());
            return Ok(ExitCode::SUCCESS);
        }
        "metrics" => {
            for m in schema::end_to_end().iter().chain(&schema::per_layer()) {
                let bound = m
                    .bound
                    .map_or_else(String::new, |b| format!(" bound {:.0}%", b * 100.0));
                println!(
                    "{:<44} {:<6} better: {}{bound}\n    {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.note
                );
            }
            return Ok(ExitCode::SUCCESS);
        }
        "compare" => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: benchmark compare A.json B.json".into());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|text| {
                        report::Document::parse(&text).map_err(|e| format!("{path}: {e}"))
                    })
            };
            let comparison = report::compare(&read(a)?, &read(b)?)?;
            print!("{}", comparison.text);
            return Ok(if comparison.regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            });
        }
        _ => {}
    }

    // Everything below measures: refuse hosts and builds whose numbers would
    // mean something else (ROADMAP 1(a), the E14 lesson).
    let host = Host::detect();
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use run.sh (cargo build --release)".into());
    }
    if host.available_parallelism < 2 {
        return Err(format!(
            "available_parallelism is {}: the tn workloads would measure the scheduler, not the structures",
            host.available_parallelism
        ));
    }
    let effort = args.effort()?;

    if let Some(name) = args.flags.get("--workload") {
        let def = lanes::workload(name).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?;
        let traced = match args.number("--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other} is neither 0 nor 1")),
        };
        eprintln!("{}", host.render());
        let run = run_workload(def, &host, effort, traced)?;
        print!("{}", run.render());
        println!("{}", run.result_line());
        return Ok(ExitCode::SUCCESS);
    }

    match command {
        "gate" => {
            let [_, key] = args.positional.as_slice() else {
                return Err("usage: benchmark gate <roster key, e.g. stack/unprotected>".into());
            };
            gate::check_structure(key, host.tn).map_err(|e| format!("correctness gate: {e}"))?;
            println!("correctness gate passed on {key} at {} threads", host.tn);
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            println!("{}", host.render());
            let first = run_all(&host, effort)?;
            let out = args
                .flags
                .get("--out")
                .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
            first.write(&out)?;
            println!("wrote {}", out.display());
            if !args.aa {
                return Ok(ExitCode::SUCCESS);
            }
            let second = run_all(&host, effort)?;
            let out2 = out.with_extension("second.json");
            second.write(&out2)?;
            println!("wrote {}", out2.display());
            // A/A: a difference beyond the bound in either direction is a
            // repeatability failure, so compare both ways round.
            let mut beyond_bound = 0;
            for (base, new) in [(&first, &second), (&second, &first)] {
                let comparison = report::compare(base, new)?;
                print!("{}", comparison.text);
                beyond_bound += comparison.regressed + comparison.unresolved;
            }
            Ok(if beyond_bound == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::FAILURE
    })
}
