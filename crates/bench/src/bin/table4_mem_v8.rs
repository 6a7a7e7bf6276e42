//! Table 4: ARMv8-like memory transactions against the soft-error
//! classification — LU and SP under OMP, FT under MPI, at 1/2/4 cores.

use fracas::isa::IsaKind;
use fracas::mine::mem_table;
use fracas::npb::{App, Model, Scenario};

fn main() {
    let isa = IsaKind::Sira64;
    let groups = [
        (App::Lu, Model::Omp),
        (App::Sp, Model::Omp),
        (App::Ft, Model::Mpi),
    ];
    let mut scenarios = Vec::new();
    for (app, model) in groups {
        for cores in [1u32, 2, 4] {
            if let Some(s) = Scenario::new(app, model, cores, isa) {
                scenarios.push(s);
            }
        }
    }
    let db = fracas_bench::ensure_db(&scenarios);
    println!("Table 4: ARMv8-like memory transactions vs soft-error classes");
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
    println!("paper's claim: falling memory-transaction share (LU/SP A-C, D-F) tracks a");
    println!("falling UT share, while FT's constant share (G-I) keeps UT steady.");
}
