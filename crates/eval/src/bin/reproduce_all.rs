//! One-shot reproduction driver: regenerates every cheap artifact (Tables
//! 1–4, Figures 1–7 traces, the ablations) and the quick-scale Figures 8–9,
//! writing everything to `results/REPORT.md` as well as stdout.
//!
//! ```text
//! cargo run --release -p wmh-eval --bin reproduce_all
//! ```

use std::fmt::Write as _;
use wmh_data::PAPER_DATASETS;
use wmh_eval::experiments::{ablations, figures, illustrations, tables};
use wmh_eval::report::{fmt_value, save_json, Table};
use wmh_eval::{cli, RunOptions, Scale};
use wmh_fault::durable::{self, Points};

fn main() {
    cli::init_faults();
    let seed = 0xE5EED;
    let mut report = String::from("# wmh — full reproduction report\n\n");

    let mut section = |title: &str, body: String| {
        println!("==== {title} ====\n{body}");
        let _ = writeln!(report, "## {title}\n\n```text\n{body}\n```\n");
        body
    };

    section("Table 1 — LSH families (live demo)", tables::table1_demo(seed).to_markdown());
    section("Table 2 — weighted MinHash overview", tables::table2().to_markdown());
    section("Table 3 — the CWS scheme", tables::table3().to_markdown());
    section("Figure 2 — taxonomy", tables::figure2_tree());

    let configs: Vec<_> = PAPER_DATASETS.iter().map(|c| c.scaled_down(200, 20_000)).collect();
    let (t4, _) = tables::table4(&configs, seed);
    section("Table 4 — dataset summaries (200 x 20k sample)", t4.to_markdown());

    section("Figures 1, 3-7 — construction traces", illustrations::all(seed));

    // Ablations.
    let (_, quant_table) = ablations::quantization_sweep(seed, &[5.0, 50.0, 500.0]);
    section("Ablation — quantization constant", quant_table.to_markdown());
    let ccws = ablations::ccws_pairing_ablation(seed);
    section(
        "Ablation — CCWS pairing",
        format!(
            "linear-shift MSE {} | review Eq.14 MSE {} | Eq.14 degenerate rate {}",
            fmt_value(ccws.linear_shift_mse),
            fmt_value(ccws.review_eq14_mse),
            fmt_value(ccws.eq14_degenerate_rate)
        ),
    );
    let small_d = ablations::small_d_ablation(seed, &[10, 50, 200]);
    let mut t = Table::new(["D", "ICWS MSE", "I2CWS MSE"]);
    for r in &small_d {
        t.row([r.d.to_string(), fmt_value(r.icws_mse), fmt_value(r.i2cws_mse)]);
    }
    section("Ablation — ICWS vs I2CWS", t.to_markdown());

    // The two figures, quick scale. Both runs checkpoint to
    // `results/checkpoints/` and resume by default: killing this binary
    // mid-sweep and restarting it re-measures only the in-flight cell.
    let scale = Scale::quick();
    let or_die = |what: &str, e: wmh_eval::RunnerError| -> ! {
        eprintln!("{what} failed: {e}");
        std::process::exit(1);
    };
    let opts8 = RunOptions::checkpointed(format!("results/checkpoints/fig8_{}.jsonl", scale.label))
        .with_threads(cli::threads_arg());
    let (cells8, rendered8) =
        figures::figure8_with(&scale, &opts8).unwrap_or_else(|e| or_die("figure 8", e));
    section("Figure 8 — MSE vs D (quick scale)", rendered8);
    let mut checks = String::new();
    for (label, ok) in figures::check_figure8_shape(&scale, &cells8) {
        let _ = writeln!(checks, "[{}] {label}", if ok { "PASS" } else { "FAIL" });
    }
    // Figure 9 times sketching: it always runs single-threaded regardless
    // of --threads, so timings are never skewed by contention.
    let opts9 = RunOptions::checkpointed(format!("results/checkpoints/fig9_{}.jsonl", scale.label));
    let (cells9, rendered9) =
        figures::figure9_with(&scale, &opts9).unwrap_or_else(|e| or_die("figure 9", e));
    section("Figure 9 — runtime vs D (quick scale)", rendered9);
    for (label, ok) in figures::check_figure9_shape(&scale, &cells9) {
        let _ = writeln!(checks, "[{}] {label}", if ok { "PASS" } else { "FAIL" });
    }
    section("Shape checks (paper §6.3)", checks);

    let dir = std::path::Path::new("results");
    let _ = save_json(dir, "fig8_quick", &cells8);
    let _ = save_json(dir, "fig9_quick", &cells9);
    let published = std::fs::create_dir_all(dir).and_then(|()| {
        durable::publish(&dir.join("REPORT.md"), report.as_bytes(), Points::default())
    });
    match published {
        Ok(()) => eprintln!("wrote results/REPORT.md"),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
