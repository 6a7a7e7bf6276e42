//! # fracas-npb — the NPB-T benchmark suite and scenario registry
//!
//! FL-language reimplementations of all eleven NAS Parallel Benchmark
//! kernels at a tiny "class T" scale, preserving each kernel's
//! computational character (FP intensity, memory-transaction share,
//! branch/function-call composition, communication structure) so the
//! paper's per-application correlations have something real to bite on:
//!
//! | App | Character | Models |
//! |-----|-----------|--------|
//! | BT  | 2×2 block tridiagonal line solves (dense FP) | ser, omp, mpi (no 2-rank) |
//! | CG  | pentadiagonal conjugate gradient (FP + dots) | ser, omp, mpi |
//! | DC  | data-cube group-by aggregation (int + memory) | ser, omp |
//! | DT  | block shuffle dataflow (communication)        | mpi |
//! | EP  | pseudo-random pair rejection (FP, sqrt)       | ser, omp, mpi |
//! | FT  | radix-2 complex FFT rows + inverse (FP)       | ser, omp, mpi |
//! | IS  | integer bucket sort / histogram (int, memory) | ser, omp, mpi |
//! | LU  | Gauss–Seidel SSOR sweeps (FP + memory)        | ser, omp, mpi |
//! | MG  | 1-D multigrid V-cycles (memory)               | ser, omp, mpi |
//! | SP  | scalar tridiagonal Thomas solves (FP)         | ser, omp, mpi (no 2-rank) |
//! | UA  | irregular indirection smoothing (FP + memory) | ser, omp |
//!
//! The availability matrix matches the paper's §3.3.2: 10 serial + 10
//! OpenMP + 9 MPI programs; BT and SP have no dual-rank MPI variant;
//! with 1/2/4-core processor models that yields **65 scenarios per ISA,
//! 130 in total** ([`Scenario::all`]).
//!
//! ## Example
//!
//! ```
//! use fracas_npb::{App, Model, Scenario};
//! use fracas_isa::IsaKind;
//!
//! let all = Scenario::all();
//! assert_eq!(all.len(), 130);
//! let s = Scenario::new(App::Is, Model::Omp, 4, IsaKind::Sira64).unwrap();
//! assert_eq!(s.id(), "is-omp-4-sira64");
//! assert!(Scenario::new(App::Bt, Model::Mpi, 2, IsaKind::Sira32).is_none());
//! ```

mod programs;

use fracas_isa::{Image, IsaKind};
use fracas_rt::BuildError;
use std::fmt;

/// The eleven NPB-T applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    Bt,
    Cg,
    Dc,
    Dt,
    Ep,
    Ft,
    Is,
    Lu,
    Mg,
    Sp,
    Ua,
}

impl App {
    /// All applications in the figures' display order.
    pub const ALL: [App; 11] = [
        App::Bt,
        App::Cg,
        App::Dc,
        App::Dt,
        App::Ep,
        App::Ft,
        App::Is,
        App::Lu,
        App::Mg,
        App::Sp,
        App::Ua,
    ];

    /// Upper-case display name (as in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            App::Bt => "BT",
            App::Cg => "CG",
            App::Dc => "DC",
            App::Dt => "DT",
            App::Ep => "EP",
            App::Ft => "FT",
            App::Is => "IS",
            App::Lu => "LU",
            App::Mg => "MG",
            App::Sp => "SP",
            App::Ua => "UA",
        }
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The programming model of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// Single-threaded reference implementation.
    Serial,
    /// OpenMP-like fork/join parallelisation.
    Omp,
    /// MPI-like message passing (one process per rank).
    Mpi,
}

impl Model {
    /// All models.
    pub const ALL: [Model; 3] = [Model::Serial, Model::Omp, Model::Mpi];

    /// Short lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Model::Serial => "ser",
            Model::Omp => "omp",
            Model::Mpi => "mpi",
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// True if the paper's suite contains this (app, model) combination.
pub fn has_variant(app: App, model: Model) -> bool {
    match model {
        Model::Serial | Model::Omp => app != App::Dt,
        Model::Mpi => !matches!(app, App::Dc | App::Ua),
    }
}

/// True if this (app, model, cores) scenario exists (BT and SP have no
/// dual-rank MPI decomposition — the paper's §3.3.2 note).
pub fn available(app: App, model: Model, cores: u32) -> bool {
    if !has_variant(app, model) {
        return false;
    }
    match model {
        Model::Serial => cores == 1,
        Model::Omp => matches!(cores, 1 | 2 | 4),
        Model::Mpi => match cores {
            1 | 4 => true,
            2 => !matches!(app, App::Bt | App::Sp),
            _ => false,
        },
    }
}

/// One fault-injection scenario: an application variant on a processor
/// model (§4's unit of evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The application.
    pub app: App,
    /// The programming model.
    pub model: Model,
    /// Cores of the processor model (= ranks for MPI, = OMP threads).
    pub cores: u32,
    /// Target ISA.
    pub isa: IsaKind,
}

impl Scenario {
    /// Creates a scenario if it exists in the suite.
    pub fn new(app: App, model: Model, cores: u32, isa: IsaKind) -> Option<Scenario> {
        available(app, model, cores).then_some(Scenario {
            app,
            model,
            cores,
            isa,
        })
    }

    /// The full 130-scenario suite (65 per ISA), in (ISA, app, model,
    /// cores) order.
    pub fn all() -> Vec<Scenario> {
        let mut v = Vec::new();
        for isa in IsaKind::ALL {
            for app in App::ALL {
                for model in Model::ALL {
                    for cores in [1u32, 2, 4] {
                        if let Some(s) = Scenario::new(app, model, cores, isa) {
                            v.push(s);
                        }
                    }
                }
            }
        }
        v
    }

    /// A stable identifier, e.g. `ft-mpi-4-sira64`: the one place that
    /// knows the id format (campaign results carry it as their `id`).
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.app.name().to_lowercase(),
            self.model,
            self.cores,
            self.isa
        )
    }

    /// The suite scenario whose [`Scenario::id`] is `id`, or `None` for
    /// an id no scenario of [`Scenario::all`] has.
    pub fn from_id(id: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.id() == id)
    }

    /// The FL source of this scenario's program.
    pub fn source(&self) -> String {
        programs::source(self.app, self.model)
    }

    /// Builds the bootable image (compiles the program and links it with
    /// the guest runtime).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if compilation or linking fails — which
    /// would be a bug in the bundled programs, covered by tests.
    pub fn build(&self) -> Result<Image, BuildError> {
        fracas_rt::build_image(&[&self.source()], self.isa)
    }

    /// [`Scenario::build`] with an explicit compiler optimisation level
    /// (the future-work compiler-flags axis).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if compilation or linking fails.
    pub fn build_with(&self, opt: fracas_lang::OptLevel) -> Result<Image, BuildError> {
        fracas_rt::build_image_with(&[&self.source()], self.isa, opt)
    }

    /// Number of kernel processes to boot (MPI ranks; 1 otherwise).
    pub fn processes(&self) -> u32 {
        if self.model == Model::Mpi {
            self.cores
        } else {
            1
        }
    }

    /// OMP worker count the runtime should fork (1 unless OMP).
    pub fn omp_threads(&self) -> u32 {
        if self.model == Model::Omp {
            self.cores
        } else {
            1
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_130_scenarios() {
        let all = Scenario::all();
        assert_eq!(all.len(), 130);
        let per_isa = all.iter().filter(|s| s.isa == IsaKind::Sira32).count();
        assert_eq!(per_isa, 65);
    }

    #[test]
    fn paper_counts_per_model() {
        let all = Scenario::all();
        let count =
            |m: Model, isa: IsaKind| all.iter().filter(|s| s.model == m && s.isa == isa).count();
        // 10 serial, 10 OMP apps x 3 core counts, 9 MPI apps x 3 - 2.
        assert_eq!(count(Model::Serial, IsaKind::Sira64), 10);
        assert_eq!(count(Model::Omp, IsaKind::Sira64), 30);
        assert_eq!(count(Model::Mpi, IsaKind::Sira64), 25);
    }

    #[test]
    fn bt_and_sp_lack_dual_rank_mpi() {
        assert!(Scenario::new(App::Bt, Model::Mpi, 2, IsaKind::Sira64).is_none());
        assert!(Scenario::new(App::Sp, Model::Mpi, 2, IsaKind::Sira64).is_none());
        assert!(Scenario::new(App::Bt, Model::Mpi, 4, IsaKind::Sira64).is_some());
        assert!(Scenario::new(App::Lu, Model::Mpi, 2, IsaKind::Sira64).is_some());
    }

    #[test]
    fn dt_is_mpi_only_dc_ua_have_no_mpi() {
        assert!(!has_variant(App::Dt, Model::Serial));
        assert!(!has_variant(App::Dt, Model::Omp));
        assert!(has_variant(App::Dt, Model::Mpi));
        assert!(!has_variant(App::Dc, Model::Mpi));
        assert!(!has_variant(App::Ua, Model::Mpi));
    }

    #[test]
    fn ids_are_unique() {
        let all = Scenario::all();
        let mut ids: Vec<String> = all.iter().map(Scenario::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn from_id_round_trips_every_id() {
        for s in Scenario::all() {
            assert_eq!(Scenario::from_id(&s.id()), Some(s), "{}", s.id());
        }
    }

    #[test]
    fn from_id_rejects_malformed_ids() {
        for id in [
            "nope-mpi-4-sira64",
            "ft-xxx-4-sira64",
            "ft-mpi-x-sira64",
            "ft-mpi-4-arm",
            "ft-mpi-4-sira64-extra",
            "",
        ] {
            assert_eq!(Scenario::from_id(id), None, "{id:?}");
        }
    }

    #[test]
    fn from_id_rejects_well_formed_ids_outside_the_suite() {
        // BT has no dual-rank MPI variant.
        assert_eq!(Scenario::from_id("bt-mpi-2-sira32"), None);
    }

    #[test]
    fn sources_are_nonempty_for_all_scenarios() {
        for s in Scenario::all() {
            assert!(s.source().contains("fn main"), "{}", s.id());
        }
    }
}
