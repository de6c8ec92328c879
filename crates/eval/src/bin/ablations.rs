//! Run the DESIGN.md ablations: quantization constant sweep, CCWS pairing,
//! ICWS-vs-I²CWS across `D`, and b-bit truncation.

use wmh_eval::experiments::ablations;
use wmh_eval::report::{fmt_value, save_json, Table};

fn main() {
    let seed = 0xE5EED;
    let dir = std::path::Path::new("results");

    println!("Ablation 1 — quantization constant C (paper §3 trade-off)\n");
    let (rows, table) = ablations::quantization_sweep(seed, &[5.0, 20.0, 100.0, 500.0, 2000.0]);
    println!("{}", table.to_markdown());
    let _ = save_json(dir, "ablation_quantization", &rows);

    println!("Ablation 2 — CCWS pairing (review Eq. 14 vs linear shift)\n");
    let c = ablations::ccws_pairing_ablation(seed);
    println!("  linear-shift MSE : {}", fmt_value(c.linear_shift_mse));
    println!("  review Eq.14 MSE : {}", fmt_value(c.review_eq14_mse));
    println!("  Eq.14 degenerate-draw rate at weight 0.3: {}\n", fmt_value(c.eq14_degenerate_rate));
    let _ = save_json(dir, "ablation_ccws_pairing", &c);

    println!("Ablation 3 — ICWS vs I2CWS across D (paper §6.3 small-D remark)\n");
    let rows = ablations::small_d_ablation(seed, &[10, 20, 50, 100, 200]);
    let mut t = Table::new(["D", "ICWS MSE", "I2CWS MSE"]);
    for r in &rows {
        t.row([r.d.to_string(), fmt_value(r.icws_mse), fmt_value(r.i2cws_mse)]);
    }
    println!("{}", t.to_markdown());
    let _ = save_json(dir, "ablation_small_d", &rows);

    println!("Ablation 4 — b-bit truncation of ICWS fingerprints (paper §1)\n");
    let rows = ablations::bbit_ablation(seed, &[1, 2, 4, 8, 16]);
    let mut t = Table::new(["bits", "bytes/fingerprint", "MSE"]);
    for r in &rows {
        t.row([r.bits.to_string(), r.bytes.to_string(), fmt_value(r.mse)]);
    }
    println!("{}", t.to_markdown());
    let _ = save_json(dir, "ablation_bbit", &rows);
}
