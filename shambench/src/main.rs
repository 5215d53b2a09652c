//! `shambench` — the measuring child behind `run.py`.
//!
//! ```text
//! shambench prepare --workload W --seed N --dir D
//!     generate the workload's inputs into D and the oracle expectations
//! shambench measure --dir D --budget-ms B [--feed 1]
//!     set up as the CLI does (three times, keeping the last index), then
//!     run scan passes (alternating with feed passes under --feed 1)
//!     until B ms have passed, printing one JSON line per event
//! shambench trace --dir D --out F [--seed N]
//!     replay the inputs through each layer; announce the feed pass
//!     (for the parent's watchdog), print the per-layer metrics as the
//!     last JSON line and write the spans to F
//! ```
//!
//! Each end-to-end pass is checked against its oracle right after its
//! clock stops; `run.py` aggregates, applies the watchdog and prints the
//! result line.

mod alloc;
mod fixture;
mod phases;
mod trace;

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// A JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints one JSON object line from preformatted `key: value` pairs and
/// flushes, so the parent sees progress as it happens.
pub(crate) fn emit(fields: &[(&str, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let mut out = io::stdout().lock();
    let _ = writeln!(out, "{{{}}}", body.join(","));
    let _ = out.flush();
}

fn checked_fields(c: &phases::Checked) -> Vec<(&'static str, String)> {
    let errors: Vec<String> = c.errors.iter().map(|e| json_str(e)).collect();
    vec![
        ("ops", c.ops.to_string()),
        ("failed", c.failed.to_string()),
        ("ok", c.errors.is_empty().to_string()),
        ("errors", format!("[{}]", errors.join(","))),
    ]
}

fn cmd_prepare(workload: &str, seed: u64, dir: &Path) -> io::Result<()> {
    let started = Instant::now();
    let refs = fixture::references()?;
    let mut fixture = fixture::prepare(workload, seed, &refs, dir)?;
    let (index, _) = phases::setup(&refs);
    fixture::write_expectations(&mut fixture, &index, dir)?;
    let bytes: u64 = fixture.zones.iter().map(|z| z.bytes).sum();

    // Machine fingerprint for this run set: the same-box floor over the
    // zones just written and a fixed calibration loop.
    let expect = fixture::read_expect(dir)?;
    let zones = trace::read_zones(&phases::zone_paths(dir, &expect))?;
    let framing = Instant::now();
    trace::frame(&zones);
    let floor = bytes as f64 / 1e6 / framing.elapsed().as_secs_f64();
    drop(zones);
    let owners: u64 = fixture.zones.iter().map(|z| z.owners).sum();
    let idns: u64 = fixture.zones.iter().map(|z| z.idns).sum();
    let malformed: u64 = fixture.zones.iter().map(|z| z.malformed).sum();
    emit(&[
        ("event", json_str("prepared")),
        ("zone_bytes", bytes.to_string()),
        ("owners", owners.to_string()),
        ("idns", idns.to_string()),
        ("malformed", malformed.to_string()),
        ("events", fixture.events.len().to_string()),
        ("expected_detections", fixture.scan_expect.len().to_string()),
        ("frame_floor_mb_per_s", format!("{floor:.3}")),
        ("calib_mops", format!("{:.3}", trace::calibration())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("seconds", format!("{:.3}", started.elapsed().as_secs_f64())),
    ]);
    Ok(())
}

/// Set-ups per measuring child: `setup_s` is a median over all of them.
const SETUPS: usize = 3;

fn cmd_measure(dir: &Path, budget_ms: u64, feed: bool) -> io::Result<()> {
    let started = Instant::now();
    let refs = fixture::references()?;
    let expect = fixture::read_expect(dir)?;
    let mut index = None;
    for _ in 0..SETUPS {
        drop(index.take());
        let (built, setup_s) = phases::setup(&refs);
        index = Some(built);
        emit(&[
            ("event", json_str("setup")),
            ("setup_s", format!("{setup_s:.6}")),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .to_string(),
            ),
            ("threads", rayon::current_num_threads().to_string()),
        ]);
    }
    let index = index.expect("at least one set-up");
    let events = if feed {
        fixture::read_events(dir)?
    } else {
        Vec::new()
    };
    let zones = phases::zone_paths(dir, &expect);
    let lines: u64 = expect.zones.iter().map(|z| z.lines).sum();

    // A pass starts only if it is expected to end within the budget
    // (the first always runs).
    let mut longest_ms = 0u64;
    loop {
        let pass_started = Instant::now();
        emit(&[
            ("event", json_str("start")),
            ("phase", json_str("scan")),
            ("ops", lines.to_string()),
        ]);
        let (report, elapsed) = phases::scan_pass(&index, &zones)?;
        let secs = elapsed.as_secs_f64();
        let bytes: u64 = report.per_tld.values().map(|s| s.bytes).sum();
        let checked = phases::check_scan(&report, &expect);
        drop(report);
        let mut fields = vec![
            ("event", json_str("scan")),
            ("seconds", format!("{secs:.6}")),
            ("bytes", bytes.to_string()),
        ];
        fields.extend(checked_fields(&checked));
        emit(&fields);

        if feed {
            emit(&[
                ("event", json_str("start")),
                ("phase", json_str("feed")),
                ("ops", expect.registrations.to_string()),
            ]);
            let (report, elapsed, latencies) = phases::feed_pass(&index, &events, None);
            let checked = phases::check_feed(&report, &expect, latencies.len());
            drop(report);
            let churn_ms: Vec<String> = latencies.iter().map(|ms| format!("{ms:.4}")).collect();
            let mut fields = vec![
                ("event", json_str("feed")),
                ("seconds", format!("{:.6}", elapsed.as_secs_f64())),
                ("registrations", expect.registrations.to_string()),
                ("churn_ms", format!("[{}]", churn_ms.join(","))),
            ];
            fields.extend(checked_fields(&checked));
            emit(&fields);
        }

        longest_ms = longest_ms.max(pass_started.elapsed().as_millis() as u64);
        if started.elapsed().as_millis() as u64 + longest_ms > budget_ms {
            break;
        }
    }
    emit(&[("event", json_str("done"))]);
    Ok(())
}

fn cmd_trace(dir: &Path, out: &Path, run_id: u64) -> io::Result<()> {
    let refs = fixture::references()?;
    let expect = fixture::read_expect(dir)?;
    let events = fixture::read_events(dir)?;
    let mut tracer = trace::Tracer::new(run_id);
    let (metrics, checks) = trace::run(&mut tracer, &refs, dir, &expect, &events)?;
    tracer.write(out)?;
    let ops: u64 = checks.iter().map(|c| c.ops).sum();
    let failed: u64 = checks.iter().map(|c| c.failed).sum();
    let errors: Vec<String> = checks
        .iter()
        .flat_map(|c| c.errors.iter())
        .map(|e| json_str(e))
        .collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value:.9},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    emit(&[
        ("event", json_str("trace")),
        ("ops", ops.to_string()),
        ("failed", failed.to_string()),
        ("ok", errors.is_empty().to_string()),
        ("errors", format!("[{}]", errors.join(","))),
        ("metrics", format!("{{{}}}", body.join(","))),
    ]);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: shambench prepare|measure|trace --workload W --dir D …");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(flag(&args, "--dir").unwrap_or_else(|| ".".into()));
    let result = match command.as_str() {
        "prepare" => {
            let workload = flag(&args, "--workload").unwrap_or_default();
            let seed = flag(&args, "--seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            cmd_prepare(&workload, seed, &dir)
        }
        "measure" => {
            let budget = flag(&args, "--budget-ms")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let feed = flag(&args, "--feed").is_some_and(|v| v == "1");
            cmd_measure(&dir, budget, feed)
        }
        "trace" => {
            let out = PathBuf::from(flag(&args, "--out").unwrap_or_else(|| "trace.jsonl".into()));
            let run = flag(&args, "--seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            cmd_trace(&dir, &out, run)
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown command {other:?}"),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shambench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
