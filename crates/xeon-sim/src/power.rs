//! Full-system power model.
//!
//! The paper measures *whole-system* power with a Watts Up Pro meter:
//! "Numbers reported here represent a full system power profile, including
//! CPU, memory, power supply, and other components" (Section III-B). The key
//! observations the model must reproduce:
//!
//! * total power on four cores is ~14 % higher than on one core;
//! * applications that scale well show the largest power increases (BT:
//!   ×1.31), poorly scaling ones show little change or even reductions,
//!   because contention keeps cores stalled;
//! * leaving cores idle reduces on-chip power, but extra bus/memory traffic
//!   (e.g. after a thread re-binding destroys cache warmth) can offset it.
//!
//! The model is additive: idle system + per-active-core static and
//! activity-scaled dynamic power + per-active-L2 power + FSB-utilisation and
//! DRAM-utilisation terms.

use serde::{Deserialize, Serialize};

use crate::params::PowerParams;

/// Breakdown of average power during a phase execution (Watts).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Constant system floor (PSU, board, disks, idle DRAM).
    pub idle_w: f64,
    /// Static + dynamic power of the active cores.
    pub cores_w: f64,
    /// Power of the active shared L2 caches.
    pub l2_w: f64,
    /// Front-side-bus power (scales with utilisation).
    pub bus_w: f64,
    /// DRAM activity power (scales with bandwidth utilisation).
    pub dram_w: f64,
}

impl PowerBreakdown {
    /// Total system power in Watts.
    pub fn total_w(&self) -> f64 {
        self.idle_w + self.cores_w + self.l2_w + self.bus_w + self.dram_w
    }
}

/// The full-system power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    params: PowerParams,
}

impl PowerModel {
    /// Builds a power model from its coefficients.
    pub fn new(params: PowerParams) -> Self {
        Self { params }
    }

    /// The underlying coefficients.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Average system power for a phase at the nominal operating point.
    ///
    /// * `active_cores` — number of cores running threads;
    /// * `per_core_ipc` — average IPC of each active core (drives dynamic power);
    /// * `active_l2` — number of L2 caches in use;
    /// * `bus_utilisation`, `dram_utilisation` — in `[0, 1]`.
    pub fn phase_power(
        &self,
        active_cores: usize,
        per_core_ipc: f64,
        active_l2: usize,
        bus_utilisation: f64,
        dram_utilisation: f64,
    ) -> PowerBreakdown {
        self.phase_power_scaled(
            active_cores,
            per_core_ipc,
            active_l2,
            bus_utilisation,
            dram_utilisation,
            1.0,
            1.0,
        )
    }

    /// Average system power for a phase at a DVFS operating point.
    ///
    /// `static_scale` multiplies the per-core static/leakage term (∝ V) and
    /// `dynamic_scale` the per-core dynamic term (∝ f·V²), both relative to
    /// nominal — see [`crate::params::FreqLadder::static_power_scale`] and
    /// [`crate::params::FreqLadder::dynamic_power_scale`]. The idle floor, L2,
    /// bus and DRAM terms are frequency-independent.
    #[allow(clippy::too_many_arguments)]
    pub fn phase_power_scaled(
        &self,
        active_cores: usize,
        per_core_ipc: f64,
        active_l2: usize,
        bus_utilisation: f64,
        dram_utilisation: f64,
        static_scale: f64,
        dynamic_scale: f64,
    ) -> PowerBreakdown {
        let p = &self.params;
        let activity = (per_core_ipc.max(0.0) / p.core_ipc_ref).min(p.core_dynamic_cap);
        let cores_w = active_cores as f64
            * (p.core_static_w * static_scale + p.core_dynamic_max_w * activity * dynamic_scale);
        PowerBreakdown {
            idle_w: p.system_idle_w,
            cores_w,
            l2_w: active_l2 as f64 * p.l2_active_w,
            bus_w: p.fsb_max_w * bus_utilisation.clamp(0.0, 1.0),
            dram_w: p.dram_max_w * dram_utilisation.clamp(0.0, 1.0),
        }
    }

    /// Power with everything idle (no threads running).
    pub fn idle_power(&self) -> PowerBreakdown {
        self.phase_power(0, 0.0, 0, 0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(PowerParams::default())
    }

    #[test]
    fn idle_power_is_the_floor() {
        let m = model();
        let idle = m.idle_power();
        assert_eq!(idle.total_w(), m.params().system_idle_w);
        assert_eq!(idle.cores_w, 0.0);
    }

    #[test]
    fn power_grows_with_active_cores() {
        let m = model();
        let one = m.phase_power(1, 1.2, 1, 0.2, 0.2).total_w();
        let two = m.phase_power(2, 1.2, 1, 0.3, 0.3).total_w();
        let four = m.phase_power(4, 1.2, 2, 0.5, 0.5).total_w();
        assert!(one < two && two < four);
        // Paper: ~14 % growth from one to four cores for typical activity.
        let growth = four / one;
        assert!(growth > 1.05 && growth < 1.45, "1->4 core growth {growth} out of band");
    }

    #[test]
    fn single_core_power_in_paper_band() {
        // Figure 3 shows single-threaded whole-system power around 115-130 W.
        let m = model();
        let p = m.phase_power(1, 1.0, 1, 0.15, 0.15).total_w();
        assert!(p > 110.0 && p < 135.0, "single core power {p} outside the paper's band");
    }

    #[test]
    fn dynamic_power_saturates_with_ipc() {
        let m = model();
        let hi = m.phase_power(4, 10.0, 2, 0.0, 0.0).total_w();
        let cap = m
            .phase_power(4, m.params().core_ipc_ref * m.params().core_dynamic_cap, 2, 0.0, 0.0)
            .total_w();
        assert!((hi - cap).abs() < 1e-9, "IPC above the cap must not add power");
        let low = m.phase_power(4, 0.2, 2, 0.0, 0.0).total_w();
        assert!(low < hi);
    }

    #[test]
    fn dvfs_scaling_touches_only_the_core_term() {
        let m = model();
        let nominal = m.phase_power(4, 1.2, 2, 0.5, 0.5);
        let unit = m.phase_power_scaled(4, 1.2, 2, 0.5, 0.5, 1.0, 1.0);
        assert_eq!(nominal, unit, "unit scales must reproduce the nominal model exactly");

        // A Xeon-like bottom step: f 2/3 of nominal, V ~0.85 of nominal.
        let (vs, fs) = (0.85, 2.0 / 3.0);
        let down = m.phase_power_scaled(4, 1.2, 2, 0.5, 0.5, vs, fs * vs * vs);
        assert!(down.cores_w < nominal.cores_w, "downclocked cores must draw less");
        assert_eq!(down.idle_w, nominal.idle_w);
        assert_eq!(down.l2_w, nominal.l2_w);
        assert_eq!(down.bus_w, nominal.bus_w);
        assert_eq!(down.dram_w, nominal.dram_w);
        // The core saving has both a static (V) and a dynamic (f·V²) part.
        let p = m.params();
        let expected = 4.0
            * (p.core_static_w * vs
                + p.core_dynamic_max_w
                    * (1.2f64 / p.core_ipc_ref).min(p.core_dynamic_cap)
                    * fs
                    * vs
                    * vs);
        assert!((down.cores_w - expected).abs() < 1e-12);
    }

    #[test]
    fn utilisation_terms_clamped() {
        let m = model();
        let over = m.phase_power(1, 1.0, 1, 2.0, 2.0);
        assert!(over.bus_w <= m.params().fsb_max_w + 1e-12);
        assert!(over.dram_w <= m.params().dram_max_w + 1e-12);
        let under = m.phase_power(1, 1.0, 1, -1.0, -1.0);
        assert_eq!(under.bus_w, 0.0);
        assert_eq!(under.dram_w, 0.0);
    }
}
