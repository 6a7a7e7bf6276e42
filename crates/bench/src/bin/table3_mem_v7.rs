//! Table 3: ARMv7-like memory transactions against the soft-error
//! classification — MG and IS under MPI at 1/2/4 ranks.

use fracas::isa::IsaKind;
use fracas::mine::mem_table;
use fracas::npb::{App, Model, Scenario};

fn main() {
    let isa = IsaKind::Sira32;
    let mut scenarios = Vec::new();
    for app in [App::Mg, App::Is] {
        for cores in [1u32, 2, 4] {
            if let Some(s) = Scenario::new(app, Model::Mpi, cores, isa) {
                scenarios.push(s);
            }
        }
    }
    let db = fracas_bench::ensure_db(&scenarios);
    println!("Table 3: ARMv7-like memory transactions vs soft-error classes");
    println!(
        "{:<12} {:>16} {:>8} {:>14} {:>10}",
        "Scenario", "Vanish+OMM+ONA", "UT", "Mem. Inst. (%)", "RD/WR"
    );
    for row in mem_table(&db, &scenarios) {
        println!(
            "{:<12} {:>16.1} {:>8.1} {:>14.1} {:>10.2}",
            row.label, row.survived_pct, row.ut_pct, row.mem_pct, row.rd_wr
        );
    }
    println!();
    println!("paper's claim: higher memory-instruction share goes with higher UT incidence.");
}
