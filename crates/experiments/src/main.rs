//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <scenario> [--sites N] [--seed S] [--days D] [--full] [--json]
//!                  [--threads N] [--spill DIR]
//! repro list       # enumerate the scenario registry (name<TAB>description)
//! repro all        # every registered scenario, in paper order
//! repro export     # write every exportable dataset as JSON
//! ```
//!
//! The binary is a thin CLI over the `experiments` library: scenarios come
//! from [`experiments::registry`], run against one shared
//! [`experiments::Session`], and return structured
//! [`experiments::Report`]s — rendered as text by default, emitted as JSON
//! with `--json`.
//!
//! Every scenario prints the paper's reported value next to the measured
//! reproduction and the relative error. Defaults run a 20k-site world
//! (1/5th of the paper's 100k) and scale rank-dependent thresholds
//! accordingly; `--full` switches to the paper's full scale.
//!
//! `--threads` sets the worker count of every crawl and synthesis pass
//! (sites, (residence, day) pairs, ISPs in sweeps). Output is byte-identical
//! at any count — the flag only trades memory (a few day buffers) for
//! wall-clock. Numeric flags accept both `--sites N` and `--sites=N`.
//! `--spill DIR` is honoured by `million-subs` alone (see the usage text).

use experiments::{append_metrics, export_all, find, registry, Report, RunConfig, Session};

mod bench_snapshot;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut config = RunConfig::default();
    let mut json = false;
    let mut metrics = false;
    let mut metrics_json = false;
    let mut bench_check = false;
    let mut positional_seen = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // One parsing path for every numeric flag: `--flag N` and
        // `--flag=N` are both accepted. The `=` split only applies to
        // flags — a positional like `list=x` must stay an error, and
        // value-less flags reject an inline value instead of dropping it.
        let (flag, inline) = match (arg.starts_with("--"), arg.split_once('=')) {
            (true, Some((flag, value))) => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        let no_value = |flag: &str| {
            if inline.is_some() {
                usage(&format!("{flag} takes no value"));
            }
        };
        match flag {
            "--sites" => config.sites = num_value(flag, inline, &mut it),
            "--seed" => config.seed = num_value(flag, inline, &mut it),
            "--days" => config.days = num_value(flag, inline, &mut it),
            "--threads" => config.threads = Some(num_value(flag, inline, &mut it)),
            "--spill" => config.spill = Some(str_value(flag, inline, &mut it).into()),
            "--full" => {
                no_value("--full");
                config = config.full();
            }
            "--json" => {
                no_value("--json");
                json = true;
            }
            "--metrics" => {
                no_value("--metrics");
                metrics = true;
            }
            "--metrics-json" => {
                no_value("--metrics-json");
                metrics_json = true;
            }
            "--check" => {
                no_value("--check");
                bench_check = true;
            }
            "--help" | "-h" => usage(""),
            other if !other.starts_with('-') && !positional_seen => {
                experiment = other.to_string();
                positional_seen = true;
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    config.metrics = config.metrics || metrics || metrics_json;

    match experiment.as_str() {
        // `list` never generates a world: the registry is static.
        "list" => {
            for scenario in registry() {
                println!("{}\t{}", scenario.name(), scenario.describe());
            }
        }
        // Standing perf probes; appends snapshots to BENCH_*.json unless
        // `--check` (validate shapes only).
        "bench-snapshot" => match bench_snapshot::run(std::path::Path::new("."), bench_check) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                obs::error!("[bench-snapshot] {e}");
                std::process::exit(1);
            }
        },
        "export" => {
            let mut session = Session::new(config);
            let dir = std::path::PathBuf::from("datasets");
            export_all(&mut session, &dir).expect("dataset export");
        }
        "all" => {
            let mut session = Session::new(config);
            // Text mode renders and drops each report as it completes;
            // only --json (one array of every report) needs them retained.
            let mut reports: Vec<Report> = Vec::new();
            // One panicking scenario must not cost the rest of the run:
            // catch it, keep going, and report every failure at the end
            // (the session is only reused on success — a scenario that
            // panicked mid-cache-fill could leave it torn).
            let mut failed: Vec<&str> = Vec::new();
            for scenario in registry().iter().filter(|s| s.in_all()) {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _span = obs::span!(scenario.name());
                    scenario.run(&mut session)
                }));
                match result {
                    Ok(report) => {
                        if json {
                            reports.push(report);
                        } else {
                            print!("{}", report.render());
                        }
                    }
                    Err(_) => {
                        obs::error!("[repro] scenario {} panicked; continuing", scenario.name());
                        failed.push(scenario.name());
                    }
                }
            }
            // One cumulative Telemetry report for the whole sweep — the
            // shared session builds (and counts) each artifact once.
            if metrics_json {
                println!("{}", metrics_to_json(&session));
            } else if metrics {
                let mut telemetry = Report::new("telemetry");
                append_metrics(&mut telemetry, &session.metrics());
                if json {
                    reports.push(telemetry);
                } else {
                    print!("{}", telemetry.render());
                }
            }
            if json && !metrics_json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&reports).expect("serializable")
                );
            }
            if !failed.is_empty() {
                obs::error!(
                    "[repro] {} scenario(s) failed: {}",
                    failed.len(),
                    failed.join(", ")
                );
                std::process::exit(1);
            }
        }
        name => match find(name) {
            Some(scenario) => {
                let mut session = Session::new(config);
                let mut report = {
                    let _span = obs::span!(scenario.name());
                    scenario.run(&mut session)
                };
                if metrics {
                    append_metrics(&mut report, &session.metrics());
                }
                if metrics_json {
                    // Machine-readable metrics only: the one JSON document
                    // on stdout is the raw MetricsReport.
                    println!("{}", metrics_to_json(&session));
                } else if json {
                    println!("{}", report.to_json());
                } else {
                    print!("{}", report.render());
                }
            }
            None => unknown_experiment(name),
        },
    }
}

/// The session's telemetry snapshot as pretty-printed JSON (`--metrics-json`).
fn metrics_to_json(session: &Session) -> String {
    serde_json::to_string_pretty(&session.metrics()).expect("metrics serialize")
}

/// Parse one numeric flag value, taken inline (`--flag=N`) or from the next
/// argument (`--flag N`).
fn num_value<'a, T: std::str::FromStr>(
    flag: &str,
    inline: Option<&str>,
    it: &mut impl Iterator<Item = &'a String>,
) -> T {
    inline
        .map(str::to_string)
        .or_else(|| it.next().cloned())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

/// Take one string flag value, inline (`--flag=V`) or from the next
/// argument (`--flag V`).
fn str_value<'a>(
    flag: &str,
    inline: Option<&str>,
    it: &mut impl Iterator<Item = &'a String>,
) -> String {
    inline
        .map(str::to_string)
        .or_else(|| it.next().cloned())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        obs::error!("error: {msg}\n");
    }
    obs::error!(
        "usage: repro <scenario> [--sites N] [--seed S] [--days D] [--full] [--json]\n\
         \x20                    [--threads N] [--spill DIR] [--metrics] [--metrics-json]\n\
         \x20      repro list | all | export | bench-snapshot [--check]\n\
         `repro list` prints every registered scenario; `all` runs them in\n\
         paper order; `export` writes the JSON datasets; `bench-snapshot`\n\
         times every catalogue probe and appends one dated snapshot to each\n\
         ledger in the current directory (BENCH_lpm.json, BENCH_traffic.json;\n\
         --check validates them without writing). Numeric flags accept\n\
         `--flag N` and `--flag=N`. --threads runs crawls and\n\
         synthesis on N workers; output is identical at any N. --json emits the\n\
         structured report. --metrics appends a telemetry section (stage\n\
         spans, pipeline counters, flow-shape histograms); --metrics-json\n\
         prints only the raw metrics snapshot as JSON.\n\
         --spill DIR makes million-subs write its flow stream as columnar\n\
         day-parts under DIR/million-subs and build its report from their\n\
         digest-verified replay (same report; other scenarios ignore it).\n\
         REPRO_LOG=off|error|warn|info|debug|trace filters progress\n\
         diagnostics on stderr."
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// An unknown scenario name prints the registry so the valid names are
/// always discoverable from the error itself.
fn unknown_experiment(name: &str) -> ! {
    obs::error!("error: unknown experiment: {name}\n\nregistered scenarios:");
    for scenario in registry() {
        obs::error!("  {:<20} {}", scenario.name(), scenario.describe());
    }
    obs::error!("  {:<20} every scenario above, in paper order", "all");
    obs::error!("  {:<20} print the scenario registry", "list");
    obs::error!("  {:<20} write every exportable dataset as JSON", "export");
    obs::error!(
        "  {:<20} time the probe catalogue, append to the ledgers",
        "bench-snapshot"
    );
    std::process::exit(2);
}
