//! Heterogeneous fleets: machine mixes and per-generation workload models.
//!
//! The paper's evaluation platform is one quad-core Xeon; a real cluster
//! accretes *generations* — newer parts idle cooler and clock higher, older
//! parts run hot with shallow DVFS ladders. A [`MachineMix`] names which
//! generation each node is (a pattern cycled over node ids), and a
//! [`FleetModel`] holds one trained [`WorkloadModel`] per generation so
//! policies can price a job on the hardware it would actually run on.
//!
//! Two invariants keep heterogeneous runs comparable and deterministic:
//!
//! * **One reference generation.** The fleet always contains the paper's
//!   `qx6600` as generation 0; workload generation (deadlines, durations)
//!   is priced against it, so the *job stream* of a `(shape, seed)` pair is
//!   identical across machine mixes — the mix axis changes the hardware,
//!   never the traffic.
//! * **Disjoint phase-id namespaces.** Each generation's model mints phase
//!   ids offset by [`GEN_PHASE_ID_STRIDE`], so one shared controller table
//!   (and the control plane's interned menus) holds every generation's
//!   decisions without aliasing.

use std::thread;

use actor_core::controller::DecisionTableController;
use actor_core::ActorConfig;
use npb_workloads::BenchmarkId;
use serde::{Deserialize, Serialize};
use xeon_sim::{Machine, MachineParams, MACHINE_GEN_NAMES};

use crate::error::ClusterError;
use crate::profile::WorkloadModel;

/// Phase-id offset between fleet generations. Generous headroom above the
/// per-benchmark stride × benchmark count of one model (≤ 64 × 16).
pub const GEN_PHASE_ID_STRIDE: u32 = 4096;

/// Names of the built-in machine mixes accepted by the sweep engine's
/// `machines=` axis (see [`mix_by_name`]).
pub const MACHINE_MIX_NAMES: [&str; 4] = ["uniform", "mixed", "legacy", "modern"];

/// Which machine generation each node of a cluster is: a pattern of
/// generation names (see [`xeon_sim::MACHINE_GEN_NAMES`]) cycled over node
/// ids — node `i` is `pattern[i % pattern.len()]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineMix {
    /// Mix name, used in reports and as the sweep-axis value.
    pub name: String,
    /// Generation names cycled over node ids.
    pub pattern: Vec<String>,
}

impl Default for MachineMix {
    fn default() -> Self {
        Self::uniform()
    }
}

impl MachineMix {
    /// The homogeneous mix: every node is the paper's `qx6600`.
    pub fn uniform() -> Self {
        Self { name: "uniform".into(), pattern: vec!["qx6600".into()] }
    }

    /// Resolves a built-in mix by name (see [`MACHINE_MIX_NAMES`]):
    /// `"uniform"` (all `qx6600`), `"mixed"` (half reference `qx6600`, the
    /// rest split between `e5450` and `x5355` — gangs stay within one
    /// generation, so the mixed fleet keeps a reference pool wide enough
    /// for 4-node gangs on 8-node clusters), `"legacy"` (`qx6600` + hot
    /// old `x5355`), `"modern"` (all efficient `e5450`).
    pub fn by_name(name: &str) -> Option<Self> {
        let pattern: Vec<&str> = match name {
            "uniform" => vec!["qx6600"],
            "mixed" => vec!["qx6600", "e5450", "qx6600", "x5355"],
            "legacy" => vec!["qx6600", "x5355"],
            "modern" => vec!["e5450"],
            _ => return None,
        };
        Some(Self { name: name.into(), pattern: pattern.into_iter().map(String::from).collect() })
    }

    /// The generation name of one node.
    pub fn gen_for_node(&self, node: usize) -> &str {
        &self.pattern[node % self.pattern.len()]
    }

    /// Whether every node is the same generation.
    pub fn is_uniform(&self) -> bool {
        self.pattern.windows(2).all(|w| w[0] == w[1])
    }

    /// The distinct generation names this mix uses, in first-appearance
    /// order.
    pub fn generations(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for g in &self.pattern {
            if !out.iter().any(|o| o == g) {
                out.push(g);
            }
        }
        out
    }

    /// Checks the pattern is non-empty and every generation name resolves.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.pattern.is_empty() {
            return Err(ClusterError::InvalidSpec {
                reason: format!("machine mix {:?} has an empty pattern", self.name),
            });
        }
        for g in &self.pattern {
            if MachineParams::by_gen_name(g).is_none() {
                return Err(ClusterError::InvalidSpec {
                    reason: format!(
                        "machine mix {:?} names unknown generation {g:?}; valid generations \
                         are: {}",
                        self.name,
                        MACHINE_GEN_NAMES.join(", ")
                    ),
                });
            }
        }
        Ok(())
    }

    /// Summed idle power of an `nodes`-node cluster under this mix (W).
    pub fn idle_floor_w(&self, nodes: usize) -> f64 {
        (0..nodes)
            .map(|n| {
                MachineParams::by_gen_name(self.gen_for_node(n))
                    .expect("validated mix")
                    .power
                    .system_idle_w
            })
            .sum()
    }
}

/// Resolves a built-in machine mix by name (see [`MACHINE_MIX_NAMES`]) —
/// free-function spelling of [`MachineMix::by_name`] for symmetry with the
/// other sweep-axis registries.
pub fn mix_by_name(name: &str) -> Option<MachineMix> {
    MachineMix::by_name(name)
}

/// A power budget for a (possibly heterogeneous) cluster, expressed as the
/// mix's idle floor plus `fraction` of its summed dynamic range — the
/// heterogeneous generalisation of
/// [`budget_from_fraction`](crate::cluster::budget_from_fraction). The
/// per-node ceiling `max_node_w` is shared (the rack's power feed does not
/// care about silicon generations); each node's dynamic range is the
/// ceiling minus *its own* idle floor.
pub fn budget_for_mix(nodes: usize, mix: &MachineMix, max_node_w: f64, fraction: f64) -> f64 {
    (0..nodes)
        .map(|n| {
            let idle = MachineParams::by_gen_name(mix.gen_for_node(n))
                .expect("validated mix")
                .power
                .system_idle_w;
            idle + fraction * (max_node_w - idle)
        })
        .sum()
}

/// One generation of a fleet: the machine model plus the trained workload
/// model priced on it.
#[derive(Debug, Clone)]
pub struct FleetGen {
    /// Generation name (see [`xeon_sim::MACHINE_GEN_NAMES`]).
    pub name: String,
    /// The machine of every node of this generation.
    pub machine: Machine,
    /// That machine's idle floor (W), cached off the params.
    pub idle_w: f64,
    /// The workload model trained and priced on this machine, with its
    /// phase ids offset into the generation's own namespace.
    pub model: WorkloadModel,
}

/// The scheduler's knowledge about every machine generation in play: one
/// [`WorkloadModel`] per generation, generation 0 always the paper's
/// reference `qx6600`.
#[derive(Debug, Clone)]
pub struct FleetModel {
    gens: Vec<FleetGen>,
}

impl FleetModel {
    /// Builds one model per generation needed by `mixes` (plus the
    /// reference `qx6600`, always generation 0). Generations are ordered by
    /// the [`xeon_sim::MACHINE_GEN_NAMES`] registry, so the same mixes give
    /// the same fleet — and byte-identical results — no matter which
    /// process builds it (the distributed workers rebuild fleets from mix
    /// names on the wire).
    ///
    /// The reference generation builds on the calling thread, so a uniform
    /// fleet takes exactly the single-model path; every further generation
    /// builds on its own scoped thread. Each build seeds its own RNG from
    /// `config.seed`, so the models are the serial loop's bit for bit. As
    /// in that loop, the lowest-index generation's failure wins: its typed
    /// error is returned, or its panic re-raised.
    pub fn build(
        config: &ActorConfig,
        ids: &[BenchmarkId],
        mixes: &[MachineMix],
    ) -> Result<Self, ClusterError> {
        for mix in mixes {
            mix.validate()?;
        }
        let needed: Vec<&str> = MACHINE_GEN_NAMES
            .iter()
            .copied()
            .filter(|g| *g == "qx6600" || mixes.iter().any(|m| m.pattern.iter().any(|p| p == g)))
            .collect();
        let build_gen = |idx: usize, name: &str| -> Result<FleetGen, ClusterError> {
            let machine = Machine::by_gen_name(name).expect("names come from the registry");
            let model = WorkloadModel::build(&machine, config, ids)?
                .with_phase_id_base(idx as u32 * GEN_PHASE_ID_STRIDE);
            Ok(FleetGen {
                name: name.to_string(),
                idle_w: machine.params().power.system_idle_w,
                machine,
                model,
            })
        };
        let built: Vec<thread::Result<Result<FleetGen, ClusterError>>> = thread::scope(|scope| {
            let others: Vec<_> = needed
                .iter()
                .enumerate()
                .skip(1)
                .map(|(idx, name)| scope.spawn(move || build_gen(idx, name)))
                .collect();
            let reference = build_gen(0, needed[0]);
            std::iter::once(Ok(reference)).chain(others.into_iter().map(|h| h.join())).collect()
        });
        // In generation order: the first panic or error ends the walk.
        let gens = built
            .into_iter()
            .map(|joined| joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect::<Result<_, _>>()?;
        Ok(Self { gens })
    }

    /// Wraps one already-built model as a single-generation fleet under the
    /// reference name `qx6600` — the compatibility path for homogeneous
    /// callers that built their [`WorkloadModel`] directly on the paper's
    /// machine.
    pub fn single(model: WorkloadModel) -> Self {
        let machine = Machine::xeon_qx6600();
        Self {
            gens: vec![FleetGen {
                name: "qx6600".into(),
                idle_w: machine.params().power.system_idle_w,
                machine,
                model,
            }],
        }
    }

    /// The generations, reference first.
    pub fn gens(&self) -> &[FleetGen] {
        &self.gens
    }

    /// One generation by index (panics out of range — indices come from
    /// [`Self::gen_index`]).
    pub fn gen(&self, idx: usize) -> &FleetGen {
        &self.gens[idx]
    }

    /// The reference generation's model (the paper's `qx6600`): what
    /// workload generation and homogeneous callers price against.
    pub fn reference(&self) -> &WorkloadModel {
        &self.gens[0].model
    }

    /// Index of a generation by name, failing loudly when the fleet was not
    /// built with it — the guard that turns a mix/fleet mismatch (the old
    /// silent hardcoded-Xeon assumption) into a typed error.
    pub fn gen_index(&self, name: &str) -> Result<usize, ClusterError> {
        self.gens.iter().position(|g| g.name == name).ok_or_else(|| ClusterError::InvalidSpec {
            reason: format!(
                "machine generation {name:?} is not part of this fleet (built with: {}); build \
                 the fleet with every mix the spec uses",
                self.gens.iter().map(|g| g.name.as_str()).collect::<Vec<_>>().join(", ")
            ),
        })
    }

    /// Per-node generation indices for `nodes` nodes under `mix`, failing
    /// loudly when the mix references a generation the fleet lacks.
    pub fn node_gens(&self, mix: &MachineMix, nodes: usize) -> Result<Vec<u16>, ClusterError> {
        mix.validate()?;
        let by_pattern: Vec<u16> = mix
            .pattern
            .iter()
            .map(|g| self.gen_index(g).map(|i| i as u16))
            .collect::<Result<_, _>>()?;
        Ok((0..nodes).map(|n| by_pattern[n % by_pattern.len()]).collect())
    }

    /// One controller table over *every* generation's decisions — sound
    /// because each generation's phase ids live in their own namespace.
    pub fn decision_table(&self) -> DecisionTableController {
        DecisionTableController::new(self.gens.iter().flat_map(|g| g.model.decision_entries()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_resolve_validate_and_cycle() {
        for name in MACHINE_MIX_NAMES {
            let mix = mix_by_name(name).unwrap_or_else(|| panic!("{name} should resolve"));
            assert_eq!(mix.name, name);
            assert!(mix.validate().is_ok());
            assert!(mix.idle_floor_w(8) > 0.0);
        }
        assert!(mix_by_name("beowulf").is_none());
        let mixed = mix_by_name("mixed").unwrap();
        assert!(!mixed.is_uniform());
        assert_eq!(mixed.gen_for_node(0), "qx6600");
        assert_eq!(mixed.gen_for_node(1), "e5450");
        assert_eq!(mixed.gen_for_node(2), "qx6600");
        assert_eq!(mixed.gen_for_node(3), "x5355");
        assert_eq!(mixed.gen_for_node(4), "qx6600");
        assert_eq!(mixed.generations(), vec!["qx6600", "e5450", "x5355"]);
        // Half the mixed fleet stays on the reference generation: gangs
        // never span generations, so an 8-node mixed cluster must keep a
        // pool wide enough for the workload's 4-node gangs.
        let reference = (0..8).filter(|&n| mixed.gen_for_node(n) == "qx6600").count();
        assert_eq!(reference, 4);
        assert!(mix_by_name("uniform").unwrap().is_uniform());
        assert!(mix_by_name("modern").unwrap().is_uniform());

        let bad = MachineMix { name: "bad".into(), pattern: vec!["486dx".into()] };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("qx6600"), "error lists valid generations: {err}");
        assert!(MachineMix { name: "empty".into(), pattern: vec![] }.validate().is_err());
    }

    #[test]
    fn heterogeneous_budgets_price_each_node_s_own_floor() {
        let uniform = mix_by_name("uniform").unwrap();
        let legacy = mix_by_name("legacy").unwrap();
        let qx = MachineParams::xeon_qx6600().power.system_idle_w;
        let x5 = MachineParams::xeon_x5355().power.system_idle_w;
        assert!((uniform.idle_floor_w(4) - 4.0 * qx).abs() < 1e-9);
        assert!((legacy.idle_floor_w(4) - 2.0 * (qx + x5)).abs() < 1e-9);
        // At fraction 0 the budget is exactly the idle floor; at fraction 1
        // every node may reach the shared ceiling.
        let f0 = budget_for_mix(4, &legacy, 160.0, 0.0);
        assert!((f0 - legacy.idle_floor_w(4)).abs() < 1e-9);
        let f1 = budget_for_mix(4, &legacy, 160.0, 1.0);
        assert!((f1 - 4.0 * 160.0).abs() < 1e-9);
        // The hot legacy mix has a higher floor and a smaller dynamic range.
        assert!(legacy.idle_floor_w(4) > uniform.idle_floor_w(4));
        assert!(f1 - f0 < budget_for_mix(4, &uniform, 160.0, 1.0) - uniform.idle_floor_w(4) + 1e-9);
    }
}
