//! The §3.4 exploratory mining sweep: Pearson correlation of every
//! profile metric against every outcome rate, over the full campaign
//! database (and per-ISA slices).

use fracas::isa::IsaKind;
use fracas::mine::{correlation_matrix, strongest, RATES};
use fracas::npb::Scenario;

fn print_matrix(title: &str, matrix: &[fracas::mine::Correlation]) {
    println!("{title}");
    print!("{:<26}", "metric \\ rate");
    for r in RATES {
        print!("{r:>9}");
    }
    println!();
    let mut metric = "";
    for cell in matrix {
        if cell.metric != metric {
            if !metric.is_empty() {
                println!();
            }
            metric = cell.metric;
            print!("{metric:<26}");
        }
        print!("{:>+9.2}", cell.r);
    }
    println!("\n");
}

fn main() {
    let db = fracas_bench::ensure_db(&Scenario::all());
    let all = correlation_matrix(&db, |_| true);
    print_matrix(
        &format!("Correlation matrix over all {} campaigns:", db.len()),
        &all,
    );
    for isa in IsaKind::ALL {
        let m = correlation_matrix(&db, |c| {
            Scenario::from_id(&c.id).is_some_and(|s| s.isa == isa)
        });
        print_matrix(&format!("{isa} slice:"), &m);
    }
    println!("Strongest relationships overall:");
    for c in strongest(&all, 8) {
        println!(
            "  {:<26} ~ {:<7} r = {:+.2}  (n = {})",
            c.metric, c.rate, c.r, c.n
        );
    }
}
