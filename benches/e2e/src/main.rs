//! `fairdms-e2e --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
//! [--repeat <n>] [--scale <full|smoke>]`
//!
//! Prints every metric of the run's mode by name with its unit, then — as
//! the last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a reply was
//! wrong or an argument was.

use fairdms_e2e::json;
use fairdms_e2e::metrics::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use fairdms_e2e::report::{run, RunOutput};
use fairdms_e2e::stats::Spread;
use fairdms_e2e::workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    scale: Scale,
}

fn usage() -> String {
    format!(
        "usage: fairdms-e2e --workload <{}> --seed <u64> [--seconds <s>] [--trace <0|1>] \
         [--repeat <n>] [--scale <full|smoke>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name);
    let workload = take("workload").ok_or("`--workload` is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = take("seed").ok_or("`--seed` is required")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("`--seed {seed}` is not a u64"))?;
    let scale = match take("scale").unwrap_or("full") {
        "full" => Scale::full(),
        "smoke" => Scale::smoke(),
        other => return Err(format!("unknown scale `{other}`")),
    };
    let seconds = match take("seconds") {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| (0.05..=600.0).contains(s))
            .ok_or_else(|| format!("`--seconds {s}` is not a duration in 0.05..=600"))?,
        None => 10.0,
    };
    let trace = match take("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let repeat = match take("repeat") {
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=100).contains(n))
            .ok_or_else(|| format!("`--repeat {n}` is not a count in 1..=100"))?,
        None => 1,
    };
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag `--{unknown}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
        scale,
    })
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// checkout (the driver's is not).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Where and how this record was made (ROADMAP 1c): a number without its
/// machine is not reproducible.
fn stamp(args: &Args) -> String {
    let mut s = String::from("{\"stamp\":{");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields: [(&str, String); 10] = [
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("scale", args.scale.name.into()),
        ("cores", cores.to_string()),
        ("rustc", env!("E2E_RUSTC").into()),
        ("profile", env!("E2E_PROFILE").into()),
        ("target_cpu", env!("E2E_TARGET_CPU").into()),
        ("commit", commit()),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::push_str(&mut s, k);
        s.push(':');
        json::push_str(&mut s, v);
    }
    s.push_str("}}");
    s
}

fn result_line(
    table: &[Decl],
    attempted: u64,
    failed: u64,
    values: &BTreeMap<String, f64>,
) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (name, unit, _)) in table.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::push_str(&mut s, name);
        s.push_str(":{\"value\":");
        json::push_num(&mut s, values[*name]);
        s.push_str(",\"unit\":");
        json::push_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn write_trace(out: &RunOutput, workload: Workload) -> std::io::Result<()> {
    let Some(tracer) = &out.tracer else {
        return Ok(());
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .strip_prefix(std::env::current_dir()?)
        .map(|p| p.join("out"))
        .unwrap_or_else(|_| std::path::PathBuf::from("benches/e2e/out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&mut BufWriter::new(std::fs::File::create(&path)?))?;
    println!(
        "# trace: {} spans in {}",
        tracer.spans().len(),
        path.display()
    );
    println!("# span name: count, total s, self s");
    for (name, count, total_ns, self_ns) in tracer.totals_by_name() {
        println!(
            "#   {name}: {count}, {:.6}, {:.6}",
            total_ns as f64 * 1e-9,
            self_ns as f64 * 1e-9
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let table: &[Decl] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", stamp(&args));

    let mut runs: Vec<RunOutput> = Vec::with_capacity(args.repeat);
    for i in 0..args.repeat {
        let out = run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &args.scale,
        );
        if args.repeat > 1 {
            println!("# run {} of {}", i + 1, args.repeat);
        }
        for note in &out.notes {
            println!("# {note}");
        }
        for (name, unit, _) in table {
            let v = out
                .metrics
                .get(*name)
                .unwrap_or_else(|| panic!("run did not report declared metric {name}"));
            println!("{name} {v} {unit}");
        }
        assert_eq!(
            out.metrics.len(),
            table.len(),
            "run reported an undeclared metric"
        );
        runs.push(out);
    }
    if let Err(e) = write_trace(runs.last().expect("repeat >= 1"), args.workload) {
        eprintln!("could not write the trace: {e}");
        return ExitCode::FAILURE;
    }

    // With --repeat, the record is each metric's median, and the spread is
    // what bounds in BENCHMARK.json are set from.
    let mut values = BTreeMap::new();
    if args.repeat > 1 {
        println!(
            "# metric: median q1 q3 (max-min)/median, over {} runs",
            args.repeat
        );
    }
    for (name, ..) in table {
        let per_run: Vec<f64> = runs.iter().map(|r| r.metrics[*name]).collect();
        let spread = Spread::of(&per_run);
        if args.repeat > 1 {
            println!(
                "# {name}: {} {} {} {:.4}",
                spread.median,
                spread.q1,
                spread.q3,
                spread.range_share()
            );
        }
        values.insert(name.to_string(), spread.median);
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    println!("{}", result_line(table, attempted, failed, &values));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
