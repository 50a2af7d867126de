//! `ffbench` — one driver for every table, figure and benchmark of the
//! paper's evaluation (§3) and the studies built on it.
//!
//! ```text
//! cargo run --release -p ff-bench --bin ffbench -- list
//! cargo run --release -p ff-bench --bin ffbench -- <command> [flags]
//! cargo run --release -p ff-bench --bin ffbench -- all
//! ```
//!
//! `list` names every command with its flags. `all` rewrites every
//! committed deterministic artifact under `results/` and `bench/` in
//! place, so run it from the repository root; `scripts/check.sh` then
//! checks that git sees no difference.
//!
//! Each experiment writes into a [`Sink`] and returns a [`Result`]; the
//! driver owns stdout, stderr, the files and the exit code: 0 on
//! success, 1 when an experiment fails, 2 on a usage error.

mod bench;
mod figures;
mod studies;
mod tables;

use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// An experiment's outcome. A [`Usage`] error exits 2, any other 1.
type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// A command-line mistake.
#[derive(Debug)]
struct Usage(String);

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Usage {}

/// What an experiment produced. `write!` appends to stdout; the driver
/// writes the files first, then prints stdout and stderr.
#[derive(Default)]
struct Sink {
    /// Text for stdout.
    out: String,
    /// Progress notes and diagnostics for stderr.
    err: String,
    /// Files to write, in order.
    files: Vec<(PathBuf, Vec<u8>)>,
}

impl Sink {
    fn file(&mut self, path: impl Into<PathBuf>, contents: impl Into<Vec<u8>>) {
        self.files.push((path.into(), contents.into()));
    }

    fn flush(self) -> std::io::Result<()> {
        use std::io::Write as _;
        for (path, contents) in &self.files {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, contents)?;
        }
        std::io::stdout().write_all(self.out.as_bytes())?;
        std::io::stderr().write_all(self.err.as_bytes())
    }
}

impl fmt::Write for Sink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

/// Parsed flags; anything not given keeps its default.
struct Args {
    seed: u64,
    /// Pool workers; `0` = one per hardware thread.
    jobs: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    workload: Option<String>,
    policy: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 42,
            jobs: 0,
            out: None,
            out_dir: PathBuf::from("bench"),
            workload: None,
            policy: None,
        }
    }
}

impl Args {
    /// `--out`, or the command's default artifact path.
    fn out_or(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| default.into())
    }
}

type Runner = fn(&Args, &mut Sink) -> Result;
type Flags = &'static [&'static str];

/// One registry entry.
struct Command {
    name: &'static str,
    flags: Flags,
    run: Runner,
    about: &'static str,
}

const fn cmd(name: &'static str, flags: Flags, run: Runner, about: &'static str) -> Command {
    Command {
        name,
        flags,
        run,
        about,
    }
}

/// Flags as `list` prints them. `[policy]` is a bare positional policy
/// name; every other flag takes one value.
const BENCH: Flags = &["--seed N", "--jobs N", "--out PATH"];
const OBSERVE: Flags = &["--workload W", "--policy P", "--seed N", "--out-dir DIR"];

/// Every command, in `list` order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("list", &[], list, "this list"),
    cmd("all", &[], all, "rewrite every committed deterministic artifact in results/ and bench/"),
    cmd("tables", &[], tables::tables, "Tables 1-3: device constants and the trace inventory"),
    cmd("fig1", &[], |_, o| figures::text(1, o), "Fig. 1(a)/(b): grep+make energy vs WNIC latency / bandwidth"),
    cmd("fig2", &[], |_, o| figures::text(2, o), "Fig. 2(a)/(b): mplayer"),
    cmd("fig3", &[], |_, o| figures::text(3, o), "Fig. 3(a)/(b): Thunderbird"),
    cmd("fig4", &[], |_, o| figures::text(4, o), "Fig. 4(a)/(b): grep+make || xmms (forced spin-up)"),
    cmd("fig5", &[], |_, o| figures::text(5, o), "Fig. 5(a)/(b): Acroread with an invalid profile"),
    cmd("figures_svg", &[], figures::svgs, "render Figs. 1-5 as SVG into results/"),
    cmd("ablation", &[], studies::ablation, "design-knob studies (stage length, loss rate, ...)"),
    cmd("extensions", &[], studies::extensions, "§5 future work: partial hoarding, write sync, mobility, outages, flash tier"),
    cmd("spindown", &[], tables::spindown, "§4 spin-down timeouts: fixed, break-even, adaptive share, oracle"),
    cmd("evolution", &[], studies::evolution, "profile convergence across runs; stale-profile healing"),
    cmd("design_space", &[], studies::design_space, "disk/WNIC phase diagram over request size x think time"),
    cmd("regret", &[], studies::regret, "FlexFetch vs a DP oracle with perfect foresight"),
    cmd("robustness", &[], studies::robustness, "the figure orderings re-checked over ten seeds"),
    cmd("trace_stats", &[], tables::trace_stats, "workload characterisation (burstiness, skew, sequentiality)"),
    cmd("powertrace", &["[policy]"], tables::powertrace, "chronological per-device power trace of mplayer as CSV"),
    cmd("benchsim", BENCH, bench::benchsim, "workload x policy grid -> bench/BENCH_sim.json"),
    cmd("benchpar", BENCH, bench::benchpar, "the benchsim grid at jobs=1 vs --jobs: byte-identity and speedup"),
    cmd("benchfaults", BENCH, bench::benchfaults, "fault scenario x policy x workload chaos matrix -> bench/BENCH_faults.json"),
    cmd("observe", OBSERVE, bench::observe, "one run's event stream as JSONL plus a summary"),
];

/// Commands whose stdout is a committed artifact.
const TEXT_ARTIFACTS: [(&str, &str); 10] = [
    ("tables", "results/tables.txt"),
    ("ablation", "results/ablation.txt"),
    ("extensions", "results/extensions.txt"),
    ("spindown", "results/spindown.txt"),
    ("evolution", "results/evolution.txt"),
    ("design_space", "results/design_space.txt"),
    ("regret", "results/regret.txt"),
    ("robustness", "results/robustness.txt"),
    ("trace_stats", "results/trace_stats.txt"),
    ("powertrace", "results/powertrace_mplayer_flexfetch.csv"),
];

fn find(name: &str) -> std::result::Result<&'static Command, Usage> {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| Usage(format!("unknown command '{name}'")))
}

fn usage_text() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: ffbench <command> [flags]\ncommands: {}\n\
         `ffbench list` shows what each command does and the flags it takes\n",
        names.join(", ")
    )
}

fn parse(cmd: &Command, argv: &[String]) -> std::result::Result<Args, Usage> {
    fn number<T: FromStr>(flag: &str, value: &str) -> std::result::Result<T, Usage> {
        value
            .parse()
            .map_err(|_| Usage(format!("{flag} needs a number, got '{value}'")))
    }
    let mut args = Args::default();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let refused = || Usage(format!("{} does not take '{arg}'", cmd.name));
        if !arg.starts_with('-') && cmd.flags.contains(&"[policy]") && args.policy.is_none() {
            args.policy = Some(arg.clone());
            continue;
        }
        if !cmd.flags.iter().any(|f| f.split(' ').next() == Some(arg)) {
            return Err(refused());
        }
        let value = rest
            .next()
            .ok_or_else(|| Usage(format!("{arg} needs a value")))?;
        match arg.as_str() {
            "--seed" => args.seed = number(arg, value)?,
            "--jobs" => args.jobs = number(arg, value)?,
            "--out" => args.out = Some(value.into()),
            "--out-dir" => args.out_dir = value.into(),
            "--workload" => args.workload = Some(value.clone()),
            "--policy" => args.policy = Some(value.clone()),
            _ => return Err(refused()),
        }
    }
    Ok(args)
}

/// `ffbench list`: one line per command with its flags.
fn list(_: &Args, o: &mut Sink) -> Result {
    for c in COMMANDS {
        write!(o, "{:<13} {}", c.name, c.about)?;
        for flag in c.flags {
            write!(o, " {flag}")?;
        }
        writeln!(o)?;
    }
    Ok(())
}

/// Run one command at the given flags into a fresh sink.
fn run(name: &str, args: &Args) -> Result<Sink> {
    let mut sub = Sink::default();
    (find(name)?.run)(args, &mut sub).map_err(|e| format!("{name}: {e}"))?;
    Ok(sub)
}

/// `ffbench all`: every committed deterministic artifact at default
/// flags. `bench/BENCH_parallel.json` records wall times, so it is left
/// to `benchpar`.
fn all(_: &Args, o: &mut Sink) -> Result {
    figures::all(o)?;
    for (name, path) in TEXT_ARTIFACTS {
        o.file(path, run(name, &Args::default())?.out);
    }
    let observe = Args {
        workload: Some("grep".into()),
        policy: Some("flexfetch".into()),
        ..Args::default()
    };
    for (name, args) in [
        ("benchsim", Args::default()),
        ("benchfaults", Args::default()),
        ("observe", observe),
    ] {
        o.files.append(&mut run(name, &args)?.files);
    }
    for (path, _) in &o.files {
        writeln!(o.err, "wrote {}", path.display())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", usage_text());
        return ExitCode::from(2);
    };
    let mut sink = Sink::default();
    let outcome = find(name)
        .and_then(|cmd| Ok((cmd, parse(cmd, rest)?)))
        .map_err(Into::into)
        .and_then(|(cmd, args)| (cmd.run)(&args, &mut sink));
    let flushed = sink.flush();
    match outcome.and(flushed.map_err(Into::into)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<Usage>() => {
            eprint!("ffbench: {e}\n{}", usage_text());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("ffbench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
