//! Experiment registry: one entry per table/figure of the paper.

use crate::Ctx;

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub(crate) mod fig56;
pub(crate) mod fig789;
pub mod table10;
pub mod table11;
pub mod table12;
pub mod table7;
pub mod table8;
pub mod table9;

/// An experiment: id, description, runner.
pub struct Experiment {
    /// Command-line id (e.g. `"fig5"`).
    pub id: &'static str,
    /// What it reproduces.
    pub description: &'static str,
    /// Runner.
    pub run: fn(&mut Ctx),
}

/// All experiments in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig4",
            description: "Fig 4: utility & time vs k against the optimal (Beijing-Small)",
            run: fig4::run,
        },
        Experiment {
            id: "fig5",
            description: "Fig 5: utility vs k and vs τ (also computes Fig 6)",
            run: fig56::run,
        },
        Experiment {
            id: "fig6",
            description: "Fig 6: running time vs k and vs τ (also computes Fig 5)",
            run: fig56::run,
        },
        Experiment {
            id: "fig7",
            description: "Fig 7: TOPS-COST utility vs cost σ; TOPS-CAPACITY utility vs capacity",
            run: fig789::run_fig7,
        },
        Experiment {
            id: "fig8",
            description: "Fig 8: TOPS2 (convex ψ) utility & time",
            run: fig789::run_fig8,
        },
        Experiment {
            id: "fig9",
            description: "Fig 9: TOPS-COST selected sites & time vs cost σ",
            run: fig789::run_fig9,
        },
        Experiment {
            id: "fig10",
            description: "Fig 10: scalability vs #sites and #trajectories",
            run: fig10::run,
        },
        Experiment {
            id: "fig11",
            description: "Fig 11: city geometries (NYK / ATL / BNG)",
            run: fig11::run,
        },
        Experiment {
            id: "fig12",
            description: "Fig 12: trajectory-length classes",
            run: fig12::run,
        },
        Experiment {
            id: "table7",
            description: "Table 7: index resolution γ — build time, space, quality",
            run: table7::run,
        },
        Experiment {
            id: "table8",
            description: "Table 8: FM sketch copies f — quality vs speed-up",
            run: table8::run,
        },
        Experiment {
            id: "table9",
            description: "Table 9: memory footprints vs τ (with OOM emulation)",
            run: table9::run,
        },
        Experiment {
            id: "table10",
            description: "Table 10: dynamic update cost (trajectories & sites)",
            run: table10::run,
        },
        Experiment {
            id: "table11",
            description: "Table 11: per-radius index construction statistics",
            run: table11::run,
        },
        Experiment {
            id: "table12",
            description: "Table 12: Jaccard-similarity clustering baseline",
            run: table12::run,
        },
    ]
}
