//! Figs. 1–5 (§3.3): energy vs WNIC latency (a, 11 Mbps fixed) and vs
//! WNIC bandwidth (b, 1 ms fixed). One table names each figure's
//! scenario, policy lineup and title; a figure is swept once and
//! rendered as aligned tables with CSV blocks, or as two SVG charts.
//!
//! Expected shapes (EXPERIMENTS.md): mplayer — FlexFetch tracks
//! WNIC-only across latency and switches to the disk below ~2 Mbps;
//! Thunderbird — WNIC-only crosses above Disk-only at high latency;
//! grep+make ∥ xmms — the MP3 library keeps the disk awake, so adaptive
//! FlexFetch free-rides it while FlexFetch-static wastes the WNIC;
//! Acroread — the profile (2 MB PDFs every 25 s) mispredicts the run
//! (20 MB every 10 s), and FlexFetch corrects after one stage.

use crate::{Args, Result, Sink};
use ff_bench::{
    bandwidth_sweep, latency_sweep, line_chart, rows_to_series, standard_policies, write_csv,
    write_table, Row, Scenario, BANDWIDTHS_MBPS, LATENCIES_MS,
};
use ff_policy::PolicyKind;
use std::fmt::{self, Write};

/// One §3.3 figure.
struct Figure {
    scenario: fn(u64) -> ff_base::Result<Scenario>,
    /// Figs. 4–5 add FlexFetch-static to the standard lineup.
    with_static: bool,
    /// The scenario as the text titles name it; the SVG titles use
    /// [`Scenario::name`].
    title: &'static str,
}

#[rustfmt::skip]
const FIGURES: [Figure; 5] = [
    Figure { scenario: Scenario::grep_make, with_static: false, title: "grep+make" },
    Figure { scenario: Scenario::mplayer, with_static: false, title: "mplayer" },
    Figure { scenario: Scenario::thunderbird, with_static: false, title: "thunderbird" },
    Figure { scenario: Scenario::grep_make_xmms, with_static: true, title: "grep+make||xmms" },
    Figure { scenario: Scenario::acroread_invalid, with_static: true, title: "acroread (invalid profile)" },
];

/// Figure `n`'s latency (a) and bandwidth (b) rows.
struct Swept {
    n: usize,
    fig: &'static Figure,
    scenario: &'static str,
    a: Vec<Row>,
    b: Vec<Row>,
}

fn sweep(n: usize) -> Result<Swept> {
    let fig = &FIGURES[n - 1];
    let s = (fig.scenario)(42)?;
    let mut policies = standard_policies(&s);
    if fig.with_static {
        policies.insert(1, PolicyKind::flexfetch_static(s.profile.clone()));
    }
    Ok(Swept {
        n,
        fig,
        scenario: s.name,
        a: latency_sweep(&s, &policies, &LATENCIES_MS, 0)?,
        b: bandwidth_sweep(&s, &policies, &BANDWIDTHS_MBPS, 0)?,
    })
}

impl Swept {
    fn text(&self, o: &mut impl Write) -> fmt::Result {
        let (n, title) = (self.n, self.fig.title);
        let a = format!("Fig {n}(a) {title}: energy vs WNIC latency");
        write_table(o, &a, "lat(ms)", &self.a)?;
        write_csv(o, &self.a)?;
        let b = format!("Fig {n}(b) {title}: energy vs WNIC bandwidth");
        write_table(o, &b, "bw(Mbps)", &self.b)?;
        write_csv(o, &self.b)
    }

    /// `(path, svg)` for panels (a) and (b).
    fn svgs(&self) -> [(String, String); 2] {
        let (n, name) = (self.n, self.scenario);
        let chart = |panel: &str, axis: &str, unit: &str, rows: &[Row]| {
            let title = format!("Fig {n}({panel}) {name}: energy vs WNIC {axis}");
            let x_label = format!("WNIC {axis} ({unit})");
            let svg = line_chart(&title, &x_label, "energy (J)", &rows_to_series(rows));
            (format!("results/fig{n}{panel}.svg"), svg)
        };
        [
            chart("a", "latency", "ms", &self.a),
            chart("b", "bandwidth", "Mbps", &self.b),
        ]
    }
}

/// `ffbench figN`: the figure's tables and CSV blocks.
pub fn text(n: usize, o: &mut Sink) -> Result {
    Ok(sweep(n)?.text(o)?)
}

/// `ffbench figures_svg`: every figure drawn into `results/`.
pub fn svgs(_: &Args, o: &mut Sink) -> Result {
    for n in 1..=FIGURES.len() {
        for (path, svg) in sweep(n)?.svgs() {
            writeln!(o, "wrote {path}")?;
            o.file(path, svg);
        }
    }
    Ok(())
}

/// Every figure's text and SVGs, each swept once, for `ffbench all`.
pub fn all(o: &mut Sink) -> Result {
    for n in 1..=FIGURES.len() {
        let fig = sweep(n)?;
        let mut text = String::new();
        fig.text(&mut text)?;
        o.file(format!("results/fig{n}.txt"), text);
        for (path, svg) in fig.svgs() {
            o.file(path, svg);
        }
    }
    Ok(())
}
