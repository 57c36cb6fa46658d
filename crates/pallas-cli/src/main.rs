//! `pallas` — command-line interface to the Pallas fast-path checker.
//!
//! ```text
//! pallas check <file.c>... [<shared.h>...] [--spec <file.pallas>]
//!              [--jobs N] [--stage-stats] [--tsv] [--json] [--suggest]
//!              [--only-rule R[,R...]] [--disable-rule R[,R...]] [--list-rules]
//!              [--store <file.store>] [--no-prune] [--no-loop-summaries] [--trace] [--trace-out <trace.json>]  run the checkers
//! pallas serve [<socket>] [--tcp HOST:PORT] [--workers N] [--queue-depth N] [--timeout-ms N] [--only-rule R] [--disable-rule R] [--store <file.store>] [--no-prune] [--no-loop-summaries] [--no-coalesce] [--trace]  analysis daemon
//! pallas client <socket>|--tcp HOST:PORT check <file.c>... [--spec S] [--only-rule R] [--disable-rule R] [--json]  check via a daemon
//! pallas client <socket>|--tcp HOST:PORT stats|trace|shutdown|request <req.json>  daemon control
//! pallas paths <file.c> [--function <f>] [--dot]     render CFGs
//! pallas table5 <file.c> --function <f> [--spec S]   symbolic listing
//! pallas diff <file.c> --fast <f> --slow <g>         fast/slow diff
//! pallas infer <file.c> --fast <f> --slow <g>        propose a spec
//! pallas corpus [--set new-paths|known-bugs|examples|studied|new-bug-examples|infeasible|mined-rules] score the corpus
//! pallas study [--table 2|3|4]                        study tables
//! pallas fuzz [--seed N] [--iters N] [--unit-seed N] [--reduce] [--no-daemon] [--found-dir D] [--loop-density N]  differential fuzzing
//! pallas store <file.store> info|verify|gc|clear      inspect/maintain an analysis store
//! ```
//!
//! `check` accepts several `.c` files at once — each becomes one unit
//! (any `.h` arguments are merged into every unit as shared headers) —
//! and distributes them over `--jobs N` worker threads with work
//! stealing. `--stage-stats` appends the per-stage timing breakdown;
//! `--json` emits the NDJSON findings stream. `--list-rules` prints
//! the registry catalogue; `--only-rule`/`--disable-rule` scope the
//! Check stage to a selection of rules named by paper number (`4.1`)
//! or title (both flags repeat and accept comma-separated lists). `--trace` enables the
//! structured span collector and prints a flame summary to stderr;
//! `--trace-out FILE` additionally writes the Chrome trace-event
//! export (load it at chrome://tracing or ui.perfetto.dev). `serve`
//! runs the persistent daemon from `pallas-service`; `client check`
//! prints byte-identical output to a local `check` while sharing the
//! daemon's warm frontend cache, and `client trace` drains a
//! `serve --trace` daemon's collector.
//!
//! `--store FILE` (on `check` and `serve`) layers the persistent
//! content-addressed analysis store from `pallas-store` under the
//! in-memory cache: results survive process restarts, and edited
//! sources re-analyze only the functions whose content changed. The
//! `pallas store` subcommand inspects (`info`), CRC-checks
//! (`verify`), compacts (`gc`), or empties (`clear`) a store file.

use pallas_core::{render_unit_report, score, Engine, EngineConfig, Pallas, Score, SourceUnit};
use pallas_service::{Bind, Client, Server, ServiceConfig, Value};
use pallas_sym::ExtractConfig;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pallas: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "check" => cmd_check(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "paths" => cmd_paths(rest),
        "table5" => cmd_table5(rest),
        "diff" => cmd_diff(rest),
        "infer" => cmd_infer(rest),
        "corpus" => cmd_corpus(rest),
        "study" => cmd_study(rest),
        "fuzz" => cmd_fuzz(rest),
        "store" => cmd_store(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `pallas help`)")),
    }
}

fn print_usage() {
    println!(
        "pallas — semantic-aware checking for deep bugs in fast paths\n\
         \n\
         usage:\n\
         \x20 pallas check <file.c>... [<shared.h>...] [--spec <file.pallas>] [--jobs N] [--stage-stats] [--tsv] [--json] [--suggest] [--only-rule R[,R...]] [--disable-rule R[,R...]] [--list-rules] [--store <file.store>] [--no-prune] [--no-loop-summaries] [--trace] [--trace-out <trace.json>]\n\
         \x20 pallas serve [<socket>] [--tcp HOST:PORT] [--workers N] [--queue-depth N] [--timeout-ms N] [--only-rule R] [--disable-rule R] [--store <file.store>] [--no-prune] [--no-loop-summaries] [--no-coalesce] [--trace]\n\
         \x20 pallas client <socket>|--tcp HOST:PORT check <file.c>... [--spec <file.pallas>] [--only-rule R] [--disable-rule R] [--json]\n\
         \x20 pallas client <socket>|--tcp HOST:PORT stats | trace | shutdown | request <request.json>\n\
         \x20 pallas paths <file.c> [--function <name>] [--dot]\n\
         \x20 pallas table5 <file.c> --function <name> [--spec <file.pallas>]\n\
         \x20 pallas diff <file.c> --fast <f> --slow <g>\n\
         \x20 pallas infer <file.c> --fast <f> --slow <g>\n\
         \x20 pallas corpus [--set new-paths|known-bugs|examples|studied|new-bug-examples|infeasible|mined-rules]\n\
         \x20 pallas study [--table 2|3|4]\n\
         \x20 pallas fuzz [--seed N] [--iters N] [--unit-seed N] [--reduce] [--no-daemon] [--found-dir <dir>] [--loop-density N]\n\
         \x20 pallas store <file.store> info | verify | gc | clear"
    );
}

/// Extracts `--flag value` from an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The extraction configuration from the ablation flags `check` and
/// `serve` share: `--no-prune` disables the path-feasibility engine,
/// re-enumerating contradictory arms; `--no-loop-summaries` disables
/// the per-loop effect summaries (loop-exit havoc + in-loop
/// asserting) — both useful for comparing against the default
/// (Ablations 4 and 5).
fn extract_config(args: &[String]) -> ExtractConfig {
    ExtractConfig {
        prune_infeasible: !has_flag(args, "--no-prune"),
        loop_summaries: !has_flag(args, "--no-loop-summaries"),
        ..ExtractConfig::default()
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Loads a source file plus its spec: `--spec` wins, otherwise a
/// sibling `<stem>.pallas` file is used if present, otherwise inline
/// pragmas alone.
fn load_unit(args: &[String]) -> Result<SourceUnit, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".c"))
        .or_else(|| args.iter().find(|a| !a.starts_with("--")))
        .ok_or("missing source file argument")?;
    let src = read_file(path)?;
    let spec_text = match flag_value(args, "--spec") {
        Some(spec_path) => read_file(spec_path)?,
        None => {
            let sibling = std::path::Path::new(path).with_extension("pallas");
            std::fs::read_to_string(sibling).unwrap_or_default()
        }
    };
    Ok(SourceUnit::new(path.as_str()).with_file(path.as_str(), src).with_spec(spec_text))
}

/// Flags of `check` that consume the following argument.
const CHECK_VALUE_FLAGS: [&str; 6] =
    ["--spec", "--jobs", "--trace-out", "--only-rule", "--disable-rule", "--store"];

/// Boolean flags of `check`.
const CHECK_BOOL_FLAGS: [&str; 8] = [
    "--stage-stats",
    "--tsv",
    "--json",
    "--suggest",
    "--trace",
    "--no-prune",
    "--no-loop-summaries",
    "--list-rules",
];

/// Collects every value of a repeatable flag, splitting each on
/// commas: `--only-rule 1.2 --only-rule 4.1,5.2` yields three rules.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.extend(v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()));
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Resolves `--only-rule` / `--disable-rule` flags into a rule set
/// (every registered rule when neither flag is given). Rules may be
/// named by paper number (`4.1`) or title (`fault-missing`).
fn rule_selection(args: &[String]) -> Result<pallas_checkers::RuleSet, String> {
    pallas_checkers::RuleSet::from_selection(
        &flag_values(args, "--only-rule"),
        &flag_values(args, "--disable-rule"),
    )
}

/// `--list-rules`: one line per registered rule, in registry order.
fn render_rule_list() -> String {
    let mut out = String::new();
    for def in pallas_checkers::REGISTRY.iter() {
        out.push_str(&format!(
            "{:<5} {:<8} {:<24} {:<28} {}\n",
            def.number,
            def.severity.as_str(),
            pallas_checkers::family_name(def.family),
            def.title,
            def.finding
        ));
    }
    out
}

/// Rejects unknown flags and value flags without a value, so a typo
/// fails loudly instead of being silently ignored.
fn validate_flags(
    command: &str,
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 2,
                    _ => return Err(format!("flag `{a}` needs a value")),
                }
                continue;
            }
            if !bool_flags.contains(&a) {
                return Err(format!("unknown flag `{a}` for `{command}` (try `pallas help`)"));
            }
        }
        i += 1;
    }
    Ok(())
}

/// Positional (non-flag, non-flag-value) arguments of `check`.
fn positional_args(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            i += if CHECK_VALUE_FLAGS.contains(&a.as_str()) { 2 } else { 1 };
            continue;
        }
        out.push(a);
        i += 1;
    }
    out
}

/// Builds one unit per source file. `.h` arguments become shared
/// headers merged into every unit; the spec comes from `--spec` (all
/// units) or each source's sibling `<stem>.pallas` if present.
fn load_units(args: &[String]) -> Result<Vec<SourceUnit>, String> {
    let positionals = positional_args(args);
    let (sources, headers): (Vec<&String>, Vec<&String>) =
        positionals.into_iter().partition(|p| !p.ends_with(".h"));
    if sources.is_empty() {
        return Err("missing source file argument".into());
    }
    let shared_spec = flag_value(args, "--spec").map(read_file).transpose()?;
    let mut header_files = Vec::with_capacity(headers.len());
    for h in headers {
        header_files.push((h.clone(), read_file(h)?));
    }
    let mut units = Vec::with_capacity(sources.len());
    for path in sources {
        let src = read_file(path)?;
        let spec_text = match &shared_spec {
            Some(spec) => spec.clone(),
            None => {
                let sibling = std::path::Path::new(path).with_extension("pallas");
                std::fs::read_to_string(sibling).unwrap_or_default()
            }
        };
        let mut unit = SourceUnit::new(path.as_str());
        for (name, contents) in &header_files {
            unit = unit.with_file(name.clone(), contents.clone());
        }
        units.push(unit.with_file(path.as_str(), src).with_spec(spec_text));
    }
    Ok(units)
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    validate_flags("check", args, &CHECK_VALUE_FLAGS, &CHECK_BOOL_FLAGS)?;
    if has_flag(args, "--list-rules") {
        print!("{}", render_rule_list());
        return Ok(());
    }
    if has_flag(args, "--tsv") && has_flag(args, "--json") {
        return Err("choose one of --tsv and --json".into());
    }
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("--jobs needs a number, got `{v}`"))?,
        None => 1,
    }
    .max(1);
    let units = load_units(args)?;
    let trace_out = flag_value(args, "--trace-out");
    let tracing = has_flag(args, "--trace") || trace_out.is_some();
    // The collector is process-wide: hold the exclusivity guard for
    // the whole traced run so nothing else drains it under us.
    let trace_guard = tracing.then(|| {
        let guard = pallas_trace::exclusive();
        pallas_trace::start();
        guard
    });
    // The rule selection joins the extraction config in the engine
    // configuration, so it participates in every cache key.
    let engine = Engine::with_engine_config(EngineConfig {
        extract: extract_config(args),
        rules: rule_selection(args)?,
        store_path: flag_value(args, "--store").map(std::path::PathBuf::from),
        ..EngineConfig::default()
    });
    let mut failures = Vec::new();
    for result in engine.check_many_jobs(&units, jobs) {
        let analyzed = match result {
            Ok(a) => a,
            Err(e) => {
                failures.push(e.to_string());
                continue;
            }
        };
        if has_flag(args, "--tsv") {
            print!("{}", pallas_core::render_tsv(&analyzed));
            continue;
        }
        if has_flag(args, "--json") {
            print!("{}", pallas_core::render_ndjson(&analyzed));
            continue;
        }
        print!("{}", render_unit_report(&analyzed));
        if has_flag(args, "--suggest") {
            for w in &analyzed.warnings {
                println!(
                    "suggestion [{} line {}]: {}",
                    w.rule,
                    w.line,
                    pallas_checkers::suggest_fix(w, &analyzed.spec)
                );
            }
        }
        if has_flag(args, "--stage-stats") {
            print!("{}", pallas_core::render_stage_stats(&analyzed));
        }
    }
    if has_flag(args, "--stage-stats") && !has_flag(args, "--tsv") && !has_flag(args, "--json") {
        print!("{}", pallas_core::render_engine_stats(&engine.stats()));
    }
    // Make the run's results durable before exiting: a follow-up
    // `check --store` (or `serve --store`) starts warm.
    engine
        .flush_store()
        .map_err(|e| format!("cannot flush analysis store: {e}"))?;
    if tracing {
        let records = pallas_trace::stop();
        if let Some(path) = trace_out {
            std::fs::write(path, pallas_trace::chrome::export_chrome(&records))
                .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
            eprintln!("trace: wrote {} event(s) to `{path}`", records.len());
        }
        eprint!("{}", pallas_trace::summary::render_trace_summary(&records, 15));
        drop(trace_guard);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Parses a required positive integer flag value.
fn numeric_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        Some(v) => v.parse::<usize>().map_err(|_| format!("{flag} needs a number, got `{v}`")),
        None => Ok(default),
    }
}

/// Flags of `fuzz` that consume the following argument.
const FUZZ_VALUE_FLAGS: [&str; 7] = [
    "--seed",
    "--iters",
    "--unit-seed",
    "--found-dir",
    "--max-depth",
    "--max-block",
    "--loop-density",
];

/// Boolean flags of `fuzz`.
const FUZZ_BOOL_FLAGS: [&str; 3] = ["--reduce", "--no-daemon", "--dump"];

/// Parses an optional `u64` flag value.
fn u64_flag(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    flag_value(args, flag)
        .map(|v| v.parse::<u64>().map_err(|_| format!("{flag} needs a number, got `{v}`")))
        .transpose()
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    validate_flags("fuzz", args, &FUZZ_VALUE_FLAGS, &FUZZ_BOOL_FLAGS)?;
    let defaults = pallas_fuzz::GenConfig::default();
    let gen = pallas_fuzz::GenConfig {
        max_depth: numeric_flag(args, "--max-depth", defaults.max_depth)?.max(1),
        max_block_len: numeric_flag(args, "--max-block", defaults.max_block_len)?.max(1),
        loop_density: numeric_flag(args, "--loop-density", defaults.loop_density)?,
        ..defaults
    };
    let cfg = pallas_fuzz::FuzzConfig {
        seed: u64_flag(args, "--seed")?.unwrap_or(42),
        iters: u64_flag(args, "--iters")?.unwrap_or(200),
        unit_seed: u64_flag(args, "--unit-seed")?,
        gen,
        daemon: !has_flag(args, "--no-daemon"),
        reduce: has_flag(args, "--reduce"),
        found_dir: flag_value(args, "--found-dir").map(std::path::PathBuf::from),
    };
    if has_flag(args, "--dump") {
        let seed = cfg.unit_seed.ok_or("--dump needs --unit-seed <N>")?;
        let g = pallas_fuzz::generate_with(seed, &cfg.gen);
        println!("// seed {seed}\n{}\n/* spec:\n{}*/", g.source, g.spec);
        return Ok(());
    }
    let report = pallas_fuzz::run_fuzz(&cfg, &mut |line| eprintln!("fuzz: {line}"));
    for f in &report.failures {
        for path in &f.written {
            eprintln!("fuzz: wrote {}", path.display());
        }
    }
    println!(
        "fuzz: seed={} iters={} digest={:016x} failures={}",
        cfg.seed,
        report.iters,
        report.digest,
        report.failures.len()
    );
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} fuzz failure(s); replay with `pallas fuzz --unit-seed <seed>`",
            report.failures.len()
        ))
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    validate_flags(
        "serve",
        args,
        &[
            "--workers",
            "--queue-depth",
            "--timeout-ms",
            "--tcp",
            "--only-rule",
            "--disable-rule",
            "--store",
        ],
        &["--trace", "--no-prune", "--no-loop-summaries", "--no-coalesce"],
    )?;
    // A Unix socket path, a TCP address, or both: at least one
    // listener is required, and all of them serve byte-identical
    // responses.
    let socket = positional(args, &["--workers", "--queue-depth", "--timeout-ms", "--tcp", "--only-rule", "--disable-rule", "--store"]);
    let tcp = flag_value(args, "--tcp");
    let bind = Bind {
        unix: socket.map(std::path::PathBuf::from),
        tcp: tcp.map(str::to_string),
    };
    if bind.unix.is_none() && bind.tcp.is_none() {
        return Err("missing listener: give a socket path and/or --tcp HOST:PORT".into());
    }
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: numeric_flag(args, "--workers", defaults.workers)?.max(1),
        queue_depth: numeric_flag(args, "--queue-depth", defaults.queue_depth)?.max(1),
        timeout: Duration::from_millis(
            numeric_flag(args, "--timeout-ms", defaults.timeout.as_millis() as usize)? as u64,
        ),
        trace: has_flag(args, "--trace"),
        coalesce: !has_flag(args, "--no-coalesce"),
        engine: EngineConfig {
            extract: extract_config(args),
            rules: rule_selection(args)?,
            store_path: flag_value(args, "--store").map(std::path::PathBuf::from),
            ..defaults.engine.clone()
        },
        ..defaults
    };
    let (workers, queue_depth, timeout_ms) =
        (config.workers, config.queue_depth, config.timeout.as_millis());
    let handle = Server::start_with(bind, config).map_err(|e| format!("cannot serve: {e}"))?;
    let mut listeners = Vec::new();
    if let Some(path) = handle.socket_path() {
        listeners.push(format!("`{}`", path.display()));
    }
    if let Some(addr) = handle.tcp_addr() {
        listeners.push(format!("tcp `{addr}`"));
    }
    println!(
        "serving on {} (workers {workers}, queue depth {queue_depth}, \
         timeout {timeout_ms}ms); send {{\"op\":\"shutdown\"}} to stop",
        listeners.join(" and ")
    );
    // Blocks until a shutdown request arrives, then logs the metrics
    // summary the registry accumulated over the daemon's lifetime.
    print!("{}", handle.wait());
    Ok(())
}

/// Finds the first positional argument, skipping flags and the value
/// each flag in `value_flags` consumes (so `--tcp HOST:PORT` is not
/// mistaken for the socket path).
fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if value_flags.contains(&arg.as_str()) {
            iter.next();
        } else if !arg.starts_with("--") {
            return Some(arg);
        }
    }
    None
}

/// Where `pallas client` should connect: a Unix socket path or a
/// `--tcp HOST:PORT` address.
enum ClientTarget {
    Unix(String),
    Tcp(String),
}

impl ClientTarget {
    /// Peels the connection target off the front of `client`'s
    /// arguments, returning it plus the remaining arguments.
    fn parse(args: &[String]) -> Result<(ClientTarget, &[String]), String> {
        match args.first().map(String::as_str) {
            Some("--tcp") => {
                let addr = args
                    .get(1)
                    .ok_or("flag `--tcp` needs a HOST:PORT value")?
                    .clone();
                Ok((ClientTarget::Tcp(addr), &args[2..]))
            }
            Some(path) => Ok((ClientTarget::Unix(path.to_string()), &args[1..])),
            None => Err("missing daemon target (a socket path or --tcp HOST:PORT)".into()),
        }
    }

    /// Connects over the chosen transport with a one-line diagnostic
    /// on failure.
    fn connect(&self) -> Result<Client, String> {
        match self {
            ClientTarget::Unix(path) => Client::connect(path)
                .map_err(|e| format!("cannot connect to daemon at `{path}`: {e}")),
            ClientTarget::Tcp(addr) => Client::connect_tcp(addr.as_str())
                .map_err(|e| format!("cannot connect to daemon at tcp `{addr}`: {e}")),
        }
    }
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let (target, rest) = ClientTarget::parse(args)?;
    let sub = rest
        .first()
        .ok_or("missing client subcommand (check|stats|trace|shutdown|request)")?;
    let sub_args = &rest[1..];
    match sub.as_str() {
        "check" => cmd_client_check(&target, sub_args),
        "stats" => {
            let response = target
                .connect()?
                .stats()
                .map_err(|e| format!("stats request failed: {e}"))?;
            println!("{response}");
            Ok(())
        }
        "trace" => {
            let response = target
                .connect()?
                .trace()
                .map_err(|e| format!("trace request failed: {e}"))?;
            // The summary is human-oriented; print it as text and
            // leave the Chrome export to `request` users.
            match response.get("summary").and_then(Value::as_str) {
                Some(summary) => print!("{summary}"),
                None => println!("{response}"),
            }
            Ok(())
        }
        "shutdown" => {
            let response = target
                .connect()?
                .shutdown()
                .map_err(|e| format!("shutdown request failed: {e}"))?;
            println!("{response}");
            Ok(())
        }
        "request" => {
            let path = sub_args
                .first()
                .ok_or("missing request file argument (a one-line JSON request)")?;
            let mut client = target.connect()?;
            for line in read_file(path)?.lines().filter(|l| !l.trim().is_empty()) {
                let response = client
                    .request_line(line)
                    .map_err(|e| format!("request failed: {e}"))?;
                println!("{response}");
            }
            Ok(())
        }
        other => Err(format!("unknown client subcommand `{other}` (try `pallas help`)")),
    }
}

/// `pallas client <socket> check …`: same unit loading as the local
/// `check`, but analysis happens in the daemon. Output is
/// byte-identical to the local command because the daemon embeds the
/// very serializer output `check` prints.
fn cmd_client_check(target: &ClientTarget, args: &[String]) -> Result<(), String> {
    validate_flags(
        "client check",
        args,
        &["--spec", "--only-rule", "--disable-rule"],
        &["--json"],
    )?;
    let units = load_units(args)?;
    // Validate the selection locally so a typo fails before any
    // request goes out; the daemon re-resolves it per request.
    let selection = pallas_service::RuleSelection {
        only: flag_values(args, "--only-rule"),
        disable: flag_values(args, "--disable-rule"),
    };
    selection.resolve()?;
    let mut client = target.connect()?;
    let mut failures = Vec::new();
    for unit in &units {
        let response = client
            .check_with_rules(unit, selection.clone())
            .map_err(|e| format!("check request failed: {e}"))?;
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            let field = if has_flag(args, "--json") { "ndjson" } else { "report" };
            let text = response
                .get(field)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("daemon response lacks `{field}`"))?;
            print!("{text}");
        } else {
            let message = response
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("daemon reported an unknown error");
            failures.push(message.to_string());
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn cmd_paths(args: &[String]) -> Result<(), String> {
    let unit = load_unit(args)?;
    let (merged, _) = unit.merge();
    let ast = pallas_lang::parse(&merged).map_err(|e| e.to_string())?;
    let wanted = flag_value(args, "--function");
    let dot = has_flag(args, "--dot");
    for func in ast.functions() {
        if let Some(w) = wanted {
            if func.sig.name != w {
                continue;
            }
        }
        let cfg = pallas_cfg::build_cfg(&ast, func);
        if dot {
            print!("{}", pallas_cfg::render_dot(&ast, &cfg));
        } else {
            print!("{}", pallas_cfg::render_ascii(&ast, &cfg));
            println!();
        }
    }
    Ok(())
}

fn cmd_table5(args: &[String]) -> Result<(), String> {
    let function = flag_value(args, "--function").ok_or("missing --function")?;
    let unit = load_unit(args)?;
    let analyzed = Pallas::new().check_unit(&unit).map_err(|e| e.to_string())?;
    let func = analyzed
        .db
        .function(function)
        .ok_or_else(|| format!("function `{function}` not found"))?;
    for path in func.paths() {
        println!("--- path {} ---", path.index);
        print!("{}", pallas_sym::render_table5(func, path, &analyzed.spec));
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let fast = flag_value(args, "--fast").ok_or("missing --fast")?;
    let slow = flag_value(args, "--slow").ok_or("missing --slow")?;
    let unit = load_unit(args)?;
    let analyzed = Pallas::new().check_unit(&unit).map_err(|e| e.to_string())?;
    let report = pallas_diff::diff_paths(&analyzed.db, fast, slow)
        .ok_or("fast or slow function not found")?;
    print!("{report}");
    Ok(())
}

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let fast = flag_value(args, "--fast").ok_or("missing --fast")?;
    let slow = flag_value(args, "--slow").ok_or("missing --slow")?;
    let unit = load_unit(args)?;
    let analyzed = Pallas::new().check_unit(&unit).map_err(|e| e.to_string())?;
    let inferred = pallas_diff::infer_spec(&analyzed.db, &analyzed.ast, fast, slow)
        .ok_or("fast or slow function not found")?;
    print!("{inferred}");
    Ok(())
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let set = flag_value(args, "--set").unwrap_or("new-paths");
    let corpus = match set {
        "new-paths" => pallas_corpus::new_paths(),
        "known-bugs" => pallas_corpus::known_bugs(),
        "examples" => pallas_corpus::examples(),
        "studied" => pallas_corpus::studied(),
        "new-bug-examples" => pallas_corpus::new_bug_examples(),
        "infeasible" => pallas_corpus::infeasible(),
        "mined-rules" => pallas_corpus::mined_rules(),
        other => return Err(format!("unknown corpus set `{other}`")),
    };
    let driver = Pallas::new();
    let mut total = Score::default();
    for cu in &corpus {
        let analyzed = driver.check_unit(&cu.unit).map_err(|e| e.to_string())?;
        let s = score(&analyzed.warnings, &cu.bugs);
        println!("{:<28} {s}", cu.name());
        total.merge(s);
    }
    println!("----");
    println!("{} unit(s): {total}", corpus.len());
    Ok(())
}

fn cmd_study(args: &[String]) -> Result<(), String> {
    let ds = pallas_study::dataset();
    match flag_value(args, "--table") {
        Some("2") => print!("{}", pallas_study::render_table2(&ds)),
        Some("3") => print!("{}", pallas_study::render_table3(&ds)),
        Some("4") => print!("{}", pallas_study::render_table4(&ds)),
        None => {
            print!("{}", pallas_study::render_table2(&ds));
            println!();
            print!("{}", pallas_study::render_table3(&ds));
            println!();
            print!("{}", pallas_study::render_table4(&ds));
        }
        Some(other) => return Err(format!("unknown study table `{other}`")),
    }
    Ok(())
}

/// Human-readable names for the store's record kinds (the numeric
/// tags live in the engine's store layer).
fn store_kind_name(kind: u8) -> &'static str {
    match kind {
        1 => "unit record(s)",
        2 => "function record(s)",
        3 => "unit name-index record(s)",
        4 => "function name-index record(s)",
        _ => "unknown-kind record(s)",
    }
}

/// `pallas store <file.store> info|verify|gc|clear` — offline
/// inspection and maintenance of a persistent analysis store.
/// `info` and `verify` never modify the file; `gc` compacts dead
/// (superseded) records away; `clear` empties the store.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing store file argument")?;
    let action = args.get(1).map(String::as_str).unwrap_or("info");
    match action {
        "info" | "verify" => {
            let report = pallas_store::Store::inspect(path)
                .map_err(|e| format!("cannot read store `{path}`: {e}"))?;
            println!(
                "store `{path}`: {} byte(s), {} live record(s), {} dead record(s)",
                report.file_bytes, report.live_records, report.dead_records
            );
            for (kind, count) in &report.live_by_kind {
                println!("  {:>8} {}", count, store_kind_name(*kind));
            }
            match (&report.corruption, action) {
                (Some(reason), "verify") => {
                    Err(format!("store `{path}` failed verification: {reason}"))
                }
                (Some(reason), _) => {
                    println!("  warning: {reason} (a future open will salvage the valid prefix)");
                    Ok(())
                }
                (None, "verify") => {
                    println!("store `{path}`: all record checksums verified");
                    Ok(())
                }
                (None, _) => Ok(()),
            }
        }
        "gc" => {
            let (mut store, _) = pallas_store::Store::open(path)
                .map_err(|e| format!("cannot open store `{path}`: {e}"))?;
            let report =
                store.compact().map_err(|e| format!("cannot compact store `{path}`: {e}"))?;
            println!(
                "store `{path}`: compacted {} -> {} byte(s), dropped {} dead record(s)",
                report.bytes_before, report.bytes_after, report.records_dropped
            );
            Ok(())
        }
        "clear" => {
            let (mut store, _) = pallas_store::Store::open(path)
                .map_err(|e| format!("cannot open store `{path}`: {e}"))?;
            let records = store.len();
            store.clear().map_err(|e| format!("cannot clear store `{path}`: {e}"))?;
            println!("store `{path}`: cleared {records} live record(s)");
            Ok(())
        }
        other => Err(format!("unknown store action `{other}` (try info|verify|gc|clear)")),
    }
}
