//! The analytical machine model: phase profiles × thread placements → time,
//! IPC, hardware events, power and energy.
//!
//! The model composes the submodels of this crate:
//!
//! 1. **Work partition** — Amdahl's law plus a linear load-imbalance term
//!    determines the instructions executed by the critical thread.
//! 2. **Cache sharing** — each shared L2 is split among the threads placed on
//!    its pair; the phase's miss-ratio curve gives the resulting L2 MPKI.
//! 3. **Bus contention** — the aggregate L2 miss bandwidth feeds the
//!    queueing model of [`crate::bus`], inflating memory latency; CPI and
//!    bandwidth demand are solved by damped fixed-point iteration.
//! 4. **Roofline guard** — execution time is bounded below by total traffic
//!    divided by bus capacity, so extreme saturation behaves sensibly.
//! 5. **Counters, power, energy** — derived from the converged state.

use rand::Rng;

use crate::bus::BusModel;
use crate::counters::{CounterVector, HwEvent};
use crate::error::SimError;
use crate::execution::PhaseExecution;
use crate::params::MachineParams;
use crate::phase::PhaseProfile;
use crate::power::PowerModel;
use crate::topology::{Configuration, Placement, Topology};

/// Number of damped fixed-point iterations used to co-solve CPI and bus
/// demand. Convergence is geometric; 40 iterations leave residuals far below
/// the model's fidelity.
const FIXED_POINT_ITERS: usize = 40;

/// Damping factor of the fixed-point update (new = λ·candidate + (1-λ)·old).
const FIXED_POINT_DAMPING: f64 = 0.5;

/// The modelled machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    topo: Topology,
    params: MachineParams,
    bus: BusModel,
    power: PowerModel,
}

impl Machine {
    /// Builds a machine from a topology and parameter set.
    pub fn new(topo: Topology, params: MachineParams) -> Result<Self, SimError> {
        params.validate().map_err(|reason| SimError::InvalidCacheConfig { reason })?;
        let bus = BusModel::from_params(&params);
        let power = PowerModel::new(params.power);
        Ok(Self { topo, params, bus, power })
    }

    /// The paper's platform: quad-core Xeon QX6600 (two pairs sharing 4 MB L2
    /// each, 1066 MHz FSB).
    pub fn xeon_qx6600() -> Self {
        Self::new(Topology::quad_core_xeon(), MachineParams::xeon_qx6600())
            .expect("built-in parameters are valid")
    }

    /// A newer-generation quad-core part (see [`MachineParams::xeon_e5450`]):
    /// faster, cooler, deeper DVFS ladder.
    pub fn xeon_e5450() -> Self {
        Self::new(Topology::quad_core_xeon(), MachineParams::xeon_e5450())
            .expect("built-in parameters are valid")
    }

    /// An older-generation quad-core part (see [`MachineParams::xeon_x5355`]):
    /// hotter, slower memory path, shallow two-step ladder.
    pub fn xeon_x5355() -> Self {
        Self::new(Topology::quad_core_xeon(), MachineParams::xeon_x5355())
            .expect("built-in parameters are valid")
    }

    /// Looks up a built-in machine generation by name (the same registry as
    /// [`MachineParams::by_gen_name`]; valid names are
    /// [`crate::params::MACHINE_GEN_NAMES`]). All generations share the
    /// quad-core two-pair topology of the paper's platform — they differ in
    /// clocks, caches, memory path, power coefficients and ladder depth.
    pub fn by_gen_name(name: &str) -> Option<Self> {
        let params = MachineParams::by_gen_name(name)?;
        Some(Self::new(Topology::quad_core_xeon(), params).expect("built-in parameters are valid"))
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The machine's parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// The machine's voltage/frequency ladder.
    pub fn freq_ladder(&self) -> &crate::params::FreqLadder {
        &self.params.freq_ladder
    }

    /// Simulates one phase instance under one of the paper's named
    /// configurations, at the nominal frequency.
    pub fn simulate_config(&self, profile: &PhaseProfile, config: Configuration) -> PhaseExecution {
        let placement = config.placement(&self.topo);
        let mut exec = self.simulate_phase(profile, &placement);
        exec.config_label = config.label().to_string();
        exec
    }

    /// Simulates one phase instance under a named configuration at a DVFS
    /// ladder step; fails loudly on a step the ladder does not have.
    pub fn simulate_config_at(
        &self,
        profile: &PhaseProfile,
        config: Configuration,
        freq_step: usize,
    ) -> Result<PhaseExecution, SimError> {
        let placement = config.placement(&self.topo);
        let mut exec = self.simulate_phase_at(profile, &placement, freq_step)?;
        exec.config_label = if freq_step == 0 {
            config.label().to_string()
        } else {
            format!("{}@f{}", config.label(), freq_step)
        };
        Ok(exec)
    }

    /// Simulates one phase instance under an arbitrary placement, at the
    /// nominal frequency.
    pub fn simulate_phase(&self, profile: &PhaseProfile, placement: &Placement) -> PhaseExecution {
        self.simulate_phase_nominal(profile, placement)
    }

    /// Simulates one phase instance under a named configuration at *every*
    /// step of the ladder, returning one execution per step (index =
    /// step). The contention model is solved once — at nominal — and the
    /// downclocked steps derive from that solve, so this costs one fixed
    /// point no matter how deep the ladder is; prefer it over calling
    /// [`Machine::simulate_config_at`] per step when enumerating the
    /// frequency axis.
    pub fn simulate_config_ladder(
        &self,
        profile: &PhaseProfile,
        config: Configuration,
    ) -> Vec<PhaseExecution> {
        let placement = config.placement(&self.topo);
        let mut nominal = self.simulate_phase_nominal(profile, &placement);
        nominal.config_label = config.label().to_string();
        let mut execs = Vec::with_capacity(self.params.freq_ladder.len());
        for step in 1..self.params.freq_ladder.len() {
            let mut exec = self.derive_downclocked(profile, &placement, nominal.clone(), step);
            exec.config_label = format!("{}@f{step}", config.label());
            execs.push(exec);
        }
        execs.insert(0, nominal);
        execs
    }

    /// Simulates one phase instance under an arbitrary placement at a DVFS
    /// ladder step.
    ///
    /// Compute-bound cycles stretch with `1/f` (base CPI, L1 miss penalties,
    /// fork/join overheads are core-clocked), while memory/bus-bound stall
    /// time does not (off-chip latency in nanoseconds is set by the memory
    /// subsystem) — so memory-bound phases tolerate downclocking with little
    /// slowdown. Core power scales with `f·V²` (dynamic) and `V` (static);
    /// the idle/bus/DRAM terms are frequency-independent.
    ///
    /// The contention fixed point is solved once, at the nominal clock, and
    /// downclocked executions are derived from its converged stall/compute
    /// split. Besides keeping the nominal path bit-identical to the pre-DVFS
    /// model, this guarantees the physical monotonicities the ladder must
    /// exhibit (time never shrinks, power never grows down the ladder) that
    /// re-running a damped fixed point at a different clock cannot — its
    /// trajectory, truncated at a fixed iteration count, lands on slightly
    /// different pseudo-equilibria per frequency. The derivation slightly
    /// overstates bus queueing at low clocks (contention was solved at the
    /// nominal demand rate), which is the conservative direction.
    ///
    /// Fails loudly with [`SimError::InvalidFreqStep`] on a step the
    /// machine's ladder does not have.
    pub fn simulate_phase_at(
        &self,
        profile: &PhaseProfile,
        placement: &Placement,
        freq_step: usize,
    ) -> Result<PhaseExecution, SimError> {
        let ladder = &self.params.freq_ladder;
        if ladder.step(freq_step).is_none() {
            return Err(SimError::InvalidFreqStep { step: freq_step, ladder_len: ladder.len() });
        }
        let nominal = self.simulate_phase(profile, placement);
        if freq_step == 0 {
            return Ok(nominal);
        }
        Ok(self.derive_downclocked(profile, placement, nominal, freq_step))
    }

    /// Simulates one phase instance under an arbitrary placement, at the
    /// nominal frequency — the original (pre-DVFS) analytical model,
    /// bit-for-bit.
    fn simulate_phase_nominal(
        &self,
        profile: &PhaseProfile,
        placement: &Placement,
    ) -> PhaseExecution {
        debug_assert!(profile.validate().is_ok(), "invalid phase profile {:?}", profile.name);

        let p = &self.params;
        let t = placement.num_threads();
        let tf = t as f64;
        let l2_mb = p.l2_size_mb();

        // --- cache sharing -------------------------------------------------
        let threads_per_l2 = placement.threads_per_l2(&self.topo);
        let mut weighted_mpki = 0.0;
        for &k in &threads_per_l2 {
            if k > 0 {
                weighted_mpki += k as f64 * profile.l2_mrc.shared_mpki(l2_mb, k);
            }
        }
        let l2_mpki = weighted_mpki / tf;

        // --- work partition ------------------------------------------------
        let par_instr = profile.instructions * profile.parallel_fraction;
        let ser_instr = profile.instructions - par_instr;
        let spread = (self.topo.num_cores.max(2) - 1) as f64;
        let imbalance = 1.0 + profile.load_imbalance * (tf - 1.0) / spread;
        let crit_instr = ser_instr + (par_instr / tf) * imbalance;

        // --- fixed point: CPI <-> bus demand --------------------------------
        let l1_misses_per_instr = profile.l1_mpki / 1000.0;
        let l2_misses_per_instr = l2_mpki / 1000.0;
        let writeback_factor = 1.0 + 0.6 * profile.store_fraction;
        let line = p.line_bytes as f64;
        let clock_hz = p.clock_hz();

        let mut cpi = profile.base_cpi
            + l1_misses_per_instr * p.l1_miss_penalty_cycles
            + l2_misses_per_instr * p.mem_latency_cycles() / p.mlp;
        let mut bus_utilisation = 0.0;
        let mut bus_demand_ratio = 0.0;
        let mut exposed_miss_cycles = 0.0;

        for _ in 0..FIXED_POINT_ITERS {
            // Aggregate instruction throughput across the active cores while
            // the parallel part executes; the critical thread's CPI is used as
            // the representative per-thread CPI.
            let instr_rate = tf * clock_hz / cpi;
            let miss_rate = instr_rate * l2_misses_per_instr;
            let demand_bytes = miss_rate * line * writeback_factor;

            bus_demand_ratio = self.bus.raw_utilisation(demand_bytes);
            bus_utilisation = self.bus.utilisation(demand_bytes);
            let lat_cycles = self.bus.effective_latency_ns(demand_bytes) * p.clock_ghz;
            exposed_miss_cycles = lat_cycles * (1.0 - profile.prefetch_coverage) / p.mlp;

            let candidate = profile.base_cpi
                + l1_misses_per_instr * p.l1_miss_penalty_cycles
                + l2_misses_per_instr * exposed_miss_cycles;
            cpi = FIXED_POINT_DAMPING * candidate + (1.0 - FIXED_POINT_DAMPING) * cpi;
        }

        // --- time ------------------------------------------------------------
        let compute_time = crit_instr * cpi / clock_hz;
        // Roofline guard: the phase cannot finish faster than its total
        // off-chip traffic can be moved over the bus.
        let total_bytes = profile.instructions * l2_misses_per_instr * line * writeback_factor;
        let bandwidth_time = total_bytes / self.bus.bandwidth_bytes_per_s;
        let overhead_s = (p.fork_join_us
            + p.barrier_us_per_thread * (tf - 1.0).max(0.0)
            + profile.serial_overhead_us)
            * 1e-6;
        let time_s = compute_time.max(bandwidth_time) + overhead_s;

        let wall_cycles = time_s * clock_hz;
        let aggregate_ipc = profile.instructions / wall_cycles;
        let per_core_ipc = aggregate_ipc / tf;

        // --- counters ---------------------------------------------------------
        let counters = self.derive_counters(
            profile,
            l2_mpki,
            wall_cycles,
            bus_utilisation,
            crit_instr,
            exposed_miss_cycles,
        );

        // --- power / energy ---------------------------------------------------
        let dram_utilisation = bus_utilisation;
        let breakdown = self.power.phase_power(
            t,
            per_core_ipc,
            placement.active_l2(&self.topo),
            bus_utilisation,
            dram_utilisation,
        );
        let avg_power_w = breakdown.total_w();
        let energy_j = avg_power_w * time_s;

        PhaseExecution {
            phase_name: profile.name.clone(),
            config_label: format!("{}t", t),
            threads: t,
            freq_step: 0,
            freq_ghz: p.clock_ghz,
            time_s,
            wall_cycles,
            instructions: profile.instructions,
            aggregate_ipc,
            per_core_ipc,
            effective_cpi: cpi,
            l2_mpki,
            bus_utilisation,
            bus_demand_ratio,
            counters,
            avg_power_w,
            power_breakdown: breakdown,
            energy_j,
        }
    }

    /// Derives a downclocked execution from the nominal solve of the same
    /// (phase, placement): compute cycles stretch with `1/f`, the converged
    /// memory-stall time stays wall-bound, the roofline is
    /// frequency-independent, and power is re-evaluated at the step's
    /// operating point (see [`Machine::simulate_phase_at`]).
    fn derive_downclocked(
        &self,
        profile: &PhaseProfile,
        placement: &Placement,
        nominal: PhaseExecution,
        freq_step: usize,
    ) -> PhaseExecution {
        let p = &self.params;
        let ladder = &p.freq_ladder;
        let s = ladder.freq_scale(freq_step).expect("caller validated the step");
        let t = placement.num_threads();
        let tf = t as f64;
        let clock_hz = p.clock_hz();

        // Reconstruct the nominal solve's split. The compute part of the CPI
        // (core-clocked) is exact; the memory part is whatever the converged
        // contention model added on top.
        let l1_misses_per_instr = profile.l1_mpki / 1000.0;
        let l2_misses_per_instr = nominal.l2_mpki / 1000.0;
        let compute_cpi = profile.base_cpi + l1_misses_per_instr * p.l1_miss_penalty_cycles;
        let mem_cpi = (nominal.effective_cpi - compute_cpi).max(0.0);
        let exposed_miss_cycles =
            if l2_misses_per_instr > 0.0 { mem_cpi / l2_misses_per_instr } else { 0.0 };

        let par_instr = profile.instructions * profile.parallel_fraction;
        let ser_instr = profile.instructions - par_instr;
        let spread = (self.topo.num_cores.max(2) - 1) as f64;
        let imbalance = 1.0 + profile.load_imbalance * (tf - 1.0) / spread;
        let crit_instr = ser_instr + (par_instr / tf) * imbalance;

        // --- time: compute stretches with 1/f, stall time does not ---------
        let compute_time = crit_instr * (compute_cpi / s + mem_cpi) / clock_hz;
        let writeback_factor = 1.0 + 0.6 * profile.store_fraction;
        let total_bytes =
            profile.instructions * l2_misses_per_instr * p.line_bytes as f64 * writeback_factor;
        let bandwidth_time = total_bytes / self.bus.bandwidth_bytes_per_s;
        let overhead_s = (p.fork_join_us
            + p.barrier_us_per_thread * (tf - 1.0).max(0.0)
            + profile.serial_overhead_us)
            * 1e-6
            / s;
        let core_time = compute_time.max(bandwidth_time);
        let time_s = core_time + overhead_s;

        // --- bus demand falls with the instruction rate --------------------
        let nominal_core_time = (crit_instr * nominal.effective_cpi / clock_hz).max(bandwidth_time);
        let demand_scale = if core_time > 0.0 { nominal_core_time / core_time } else { 1.0 };
        let demand_bytes = nominal.bus_demand_ratio * self.bus.bandwidth_bytes_per_s * demand_scale;
        let bus_demand_ratio = self.bus.raw_utilisation(demand_bytes);
        let bus_utilisation = self.bus.utilisation(demand_bytes);

        // --- derived rates at the effective clock --------------------------
        let eff_ghz = p.clock_ghz * s;
        let wall_cycles = time_s * eff_ghz * 1e9;
        let aggregate_ipc = profile.instructions / wall_cycles;
        let per_core_ipc = aggregate_ipc / tf;
        let effective_cpi = compute_cpi + mem_cpi * s;

        // Exposed stall time is wall-constant, so its cycle count shrinks
        // with the clock.
        let counters = self.derive_counters(
            profile,
            nominal.l2_mpki,
            wall_cycles,
            bus_utilisation,
            crit_instr,
            exposed_miss_cycles * s,
        );

        let static_scale = ladder.static_power_scale(freq_step).expect("step validated");
        let dynamic_scale = ladder.dynamic_power_scale(freq_step).expect("step validated");
        let breakdown = self.power.phase_power_scaled(
            t,
            per_core_ipc,
            placement.active_l2(&self.topo),
            bus_utilisation,
            bus_utilisation,
            static_scale,
            dynamic_scale,
        );
        let avg_power_w = breakdown.total_w();
        let energy_j = avg_power_w * time_s;

        PhaseExecution {
            freq_step,
            freq_ghz: eff_ghz,
            time_s,
            wall_cycles,
            aggregate_ipc,
            per_core_ipc,
            effective_cpi,
            bus_utilisation,
            bus_demand_ratio,
            counters,
            avg_power_w,
            power_breakdown: breakdown,
            energy_j,
            ..nominal
        }
    }

    /// Simulates a phase with multiplicative jitter applied to its
    /// memory-behaviour parameters, for generating diverse (but physically
    /// plausible) training corpora. `sigma` is the half-width of the uniform
    /// relative perturbation (e.g. `0.05` = ±5 %).
    pub fn simulate_phase_noisy<R: Rng + ?Sized>(
        &self,
        profile: &PhaseProfile,
        placement: &Placement,
        sigma: f64,
        rng: &mut R,
    ) -> PhaseExecution {
        let mut jittered = profile.clone();
        let jitter = |rng: &mut R| 1.0 + rng.gen_range(-sigma..=sigma);
        jittered.base_cpi = (profile.base_cpi * jitter(rng)).max(0.05);
        jittered.l1_mpki = (profile.l1_mpki * jitter(rng)).max(0.0);
        jittered.l2_mrc.floor_mpki = (profile.l2_mrc.floor_mpki * jitter(rng)).max(0.0);
        jittered.l2_mrc.peak_mpki =
            (profile.l2_mrc.peak_mpki * jitter(rng)).max(jittered.l2_mrc.floor_mpki);
        jittered.l2_mrc.working_set_mb = (profile.l2_mrc.working_set_mb * jitter(rng)).max(1e-3);
        jittered.parallel_fraction = (profile.parallel_fraction * jitter(rng)).clamp(0.0, 1.0);
        self.simulate_phase(&jittered, placement)
    }

    fn derive_counters(
        &self,
        profile: &PhaseProfile,
        l2_mpki: f64,
        wall_cycles: f64,
        bus_utilisation: f64,
        crit_instr: f64,
        exposed_miss_cycles: f64,
    ) -> CounterVector {
        let instr = profile.instructions;
        let l1_misses = instr * profile.l1_mpki / 1000.0;
        let l2_misses = instr * l2_mpki / 1000.0;
        let prefetches = l2_misses * profile.prefetch_coverage * 2.0;
        let writeback_factor = 1.0 + 0.6 * profile.store_fraction;
        let branches = instr * profile.branch_pki / 1000.0;
        let l1_accesses = instr * profile.mem_ref_per_instr;

        let mut c = CounterVector::zero();
        c.set(HwEvent::Instructions, instr);
        c.set(HwEvent::Cycles, wall_cycles);
        c.set(HwEvent::L1DAccesses, l1_accesses);
        c.set(HwEvent::L1DMisses, l1_misses);
        c.set(HwEvent::L2Accesses, l1_misses + prefetches);
        c.set(HwEvent::L2Misses, l2_misses);
        c.set(HwEvent::BusTransactions, l2_misses * writeback_factor + 0.5 * prefetches);
        c.set(HwEvent::BusBusyCycles, bus_utilisation * wall_cycles);
        c.set(HwEvent::MemStallCycles, crit_instr * l2_mpki / 1000.0 * exposed_miss_cycles);
        c.set(HwEvent::DtlbMisses, instr * profile.dtlb_mpki / 1000.0);
        c.set(HwEvent::Branches, branches);
        c.set(HwEvent::BranchMisses, branches * profile.branch_miss_ratio);
        c.set(HwEvent::Stores, l1_accesses * profile.store_fraction);
        c.set(HwEvent::PrefetchRequests, prefetches);
        c
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::xeon_qx6600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine() -> Machine {
        Machine::xeon_qx6600()
    }

    fn times_for(profile: &PhaseProfile) -> Vec<(Configuration, f64)> {
        let m = machine();
        Configuration::ALL.iter().map(|&c| (c, m.simulate_config(profile, c).time_s)).collect()
    }

    #[test]
    fn compute_bound_phase_scales_well() {
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let times = times_for(&p);
        let t1 = times[0].1;
        let t4 = times[4].1;
        let speedup = t1 / t4;
        assert!(speedup > 2.3 && speedup < 4.0, "speedup {speedup} not in the scalable band");
        // More threads never dramatically hurt a compute-bound phase.
        for (_, t) in &times {
            assert!(*t <= t1 * 1.05);
        }
    }

    #[test]
    fn bandwidth_bound_phase_saturates() {
        let p = PhaseProfile::bandwidth_bound("bw", 5e9);
        let m = machine();
        let t1 = m.simulate_config(&p, Configuration::One).time_s;
        let t2b = m.simulate_config(&p, Configuration::TwoLoose).time_s;
        let t4 = m.simulate_config(&p, Configuration::Four).time_s;
        // Using all four cores is no better than two loosely-coupled cores.
        assert!(t4 >= t2b * 0.95, "expected saturation: t4={t4}, t2b={t2b}");
        // The four-core execution certainly does not achieve 4x.
        assert!(t1 / t4 < 2.0);
        let e4 = m.simulate_config(&p, Configuration::Four);
        assert!(e4.bus_demand_ratio > 0.8, "bandwidth-bound phase should stress the bus");
    }

    #[test]
    fn cache_sensitive_phase_prefers_loose_coupling() {
        let p = PhaseProfile::cache_sensitive("cs", 5e9);
        let m = machine();
        let tight = m.simulate_config(&p, Configuration::TwoTight);
        let loose = m.simulate_config(&p, Configuration::TwoLoose);
        assert!(
            loose.time_s < tight.time_s,
            "loosely coupled ({}) should beat tightly coupled ({})",
            loose.time_s,
            tight.time_s
        );
        assert!(loose.l2_mpki < tight.l2_mpki);
    }

    #[test]
    fn aggregate_ipc_reflects_parallelism() {
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let m = machine();
        let e1 = m.simulate_config(&p, Configuration::One);
        let e4 = m.simulate_config(&p, Configuration::Four);
        assert!(e4.aggregate_ipc > 2.0 * e1.aggregate_ipc);
        assert!(e4.aggregate_ipc < 4.2 * e1.aggregate_ipc);
        // Counter-derived IPC equals the model's aggregate IPC.
        assert!((e4.counters.ipc().unwrap() - e4.aggregate_ipc).abs() < 1e-9);
    }

    #[test]
    fn power_in_paper_band_and_grows_with_cores() {
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let m = machine();
        let e1 = m.simulate_config(&p, Configuration::One);
        let e4 = m.simulate_config(&p, Configuration::Four);
        assert!(e1.avg_power_w > 110.0 && e1.avg_power_w < 140.0, "p1={}", e1.avg_power_w);
        assert!(e4.avg_power_w > e1.avg_power_w);
        assert!(e4.avg_power_w < 175.0, "p4={}", e4.avg_power_w);
        let ratio = e4.avg_power_w / e1.avg_power_w;
        assert!(ratio > 1.1 && ratio < 1.45, "power ratio {ratio}");
        // Energy = power × time.
        assert!((e4.energy_j - e4.avg_power_w * e4.time_s).abs() < 1e-6);
    }

    #[test]
    fn scalable_phase_reduces_energy_on_four_cores() {
        // Paper: BT's 2.69x speedup with 1.31x power gives ~2x lower energy.
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let m = machine();
        let e1 = m.simulate_config(&p, Configuration::One);
        let e4 = m.simulate_config(&p, Configuration::Four);
        assert!(e4.energy_j < e1.energy_j * 0.75);
        assert!(e4.ed2() < e1.ed2());
    }

    #[test]
    fn bandwidth_phase_wastes_energy_on_four_cores() {
        let p = PhaseProfile::bandwidth_bound("bw", 5e9);
        let m = machine();
        let e2b = m.simulate_config(&p, Configuration::TwoLoose);
        let e4 = m.simulate_config(&p, Configuration::Four);
        assert!(
            e4.energy_j > e2b.energy_j * 0.98,
            "saturated phase should not save energy by using more cores (e4={}, e2b={})",
            e4.energy_j,
            e2b.energy_j
        );
    }

    #[test]
    fn counters_are_internally_consistent() {
        let p = PhaseProfile::cache_sensitive("cs", 1e9);
        let m = machine();
        for cfg in Configuration::ALL {
            let e = m.simulate_config(&p, cfg);
            let c = &e.counters;
            assert!(c.get(HwEvent::L1DMisses) <= c.get(HwEvent::L1DAccesses));
            assert!(c.get(HwEvent::L2Misses) <= c.get(HwEvent::L2Accesses) + 1.0);
            assert!(c.get(HwEvent::BranchMisses) <= c.get(HwEvent::Branches));
            assert!(c.get(HwEvent::Stores) <= c.get(HwEvent::L1DAccesses));
            assert!(c.get(HwEvent::Cycles) > 0.0);
            assert!(e.time_s > 0.0 && e.energy_j > 0.0);
            assert!(e.bus_utilisation >= 0.0 && e.bus_utilisation <= 1.0);
        }
    }

    #[test]
    fn l2_misses_grow_under_tight_sharing() {
        let p = PhaseProfile::cache_sensitive("cs", 1e9);
        let m = machine();
        let one = m.simulate_config(&p, Configuration::One);
        let tight = m.simulate_config(&p, Configuration::TwoTight);
        let loose = m.simulate_config(&p, Configuration::TwoLoose);
        assert!(tight.counters.get(HwEvent::L2Misses) > loose.counters.get(HwEvent::L2Misses));
        assert!((loose.l2_mpki - one.l2_mpki).abs() < 1e-9, "a whole L2 per thread matches solo");
    }

    #[test]
    fn noisy_simulation_is_reproducible_and_close() {
        let p = PhaseProfile::compute_bound("cb", 1e9);
        let m = machine();
        let placement = Configuration::Four.placement(m.topology());
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let a = m.simulate_phase_noisy(&p, &placement, 0.05, &mut rng1);
        let b = m.simulate_phase_noisy(&p, &placement, 0.05, &mut rng2);
        assert_eq!(a.time_s, b.time_s, "same seed, same result");
        let clean = m.simulate_phase(&p, &placement);
        let rel = (a.time_s - clean.time_s).abs() / clean.time_s;
        assert!(rel < 0.25, "5% parameter jitter should stay near the clean result (rel={rel})");
    }

    #[test]
    fn custom_topology_eight_cores() {
        let topo = Topology::new(8, 2).unwrap();
        let m = Machine::new(topo, MachineParams::xeon_qx6600()).unwrap();
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let all = Configuration::Four.placement(m.topology());
        assert_eq!(all.num_threads(), 8);
        let t8 = m.simulate_phase(&p, &all).time_s;
        let t1 = m.simulate_phase(&p, &Placement::packed(1, m.topology()).unwrap()).time_s;
        assert!(t1 / t8 > 3.0, "a compute-bound phase should keep scaling on 8 cores");
    }

    #[test]
    fn nominal_step_matches_the_pre_dvfs_model_exactly() {
        let m = machine();
        let p = PhaseProfile::cache_sensitive("cs", 1e9);
        for cfg in Configuration::ALL {
            let nominal = m.simulate_config(&p, cfg);
            let at0 = m.simulate_config_at(&p, cfg, 0).unwrap();
            assert_eq!(nominal, at0, "step 0 must be bit-identical to the nominal path");
            assert_eq!(nominal.freq_step, 0);
            assert!((nominal.freq_ghz - m.params().clock_ghz).abs() < 1e-12);
        }
    }

    #[test]
    fn compute_bound_time_stretches_with_one_over_f() {
        let m = machine();
        let p = PhaseProfile::compute_bound("cb", 5e9);
        let bottom = m.params().freq_ladder.len() - 1;
        let nominal = m.simulate_config(&p, Configuration::Four);
        let slow = m.simulate_config_at(&p, Configuration::Four, bottom).unwrap();
        let fs = m.params().freq_ladder.freq_scale(bottom).unwrap();
        let stretch = slow.time_s / nominal.time_s;
        assert!(
            stretch > 0.9 / fs && stretch < 1.1 / fs,
            "compute-bound stretch {stretch:.3} should track 1/f = {:.3}",
            1.0 / fs
        );
        assert_eq!(slow.freq_step, bottom);
        assert!(slow.freq_ghz < nominal.freq_ghz);
    }

    /// A phase that is almost pure memory stall: negligible compute CPI
    /// (tiny base CPI and L1-hit traffic — both core-clocked) and a miss
    /// stream heavy enough that wall-clock time is set by the memory system
    /// alone.
    fn pure_stall_phase(instructions: f64) -> PhaseProfile {
        PhaseProfile {
            base_cpi: 0.05,
            l1_mpki: 0.5,
            l2_mrc: crate::mrc::MissRatioCurve::new(55.0, 60.0, 6.0, 1.05),
            prefetch_coverage: 0.0,
            ..PhaseProfile::bandwidth_bound("stall", instructions)
        }
    }

    #[test]
    fn memory_bound_phase_tolerates_downclocking() {
        // The reason DVFS pays off: a bandwidth-saturated phase barely slows
        // down at the ladder bottom but draws measurably less core power, so
        // its energy (and a fortiori EDP/ED²) improves.
        let m = machine();
        let p = pure_stall_phase(5e9);
        let bottom = m.params().freq_ladder.len() - 1;
        let nominal = m.simulate_config(&p, Configuration::Four);
        let slow = m.simulate_config_at(&p, Configuration::Four, bottom).unwrap();
        let fs = m.params().freq_ladder.freq_scale(bottom).unwrap();
        let stretch = slow.time_s / nominal.time_s;
        assert!(
            stretch < 1.0 + 0.2 * (1.0 / fs - 1.0),
            "pure-stall stretch {stretch:.4} should stay far below 1/f = {:.3}",
            1.0 / fs
        );
        assert!(slow.avg_power_w < nominal.avg_power_w);
        assert!(slow.energy_j < nominal.energy_j, "downclocking a saturated phase saves energy");
        assert!(slow.ed2() < nominal.ed2(), "…and a fortiori its ED²");
    }

    #[test]
    fn out_of_range_step_is_a_loud_error() {
        let m = machine();
        let p = PhaseProfile::compute_bound("cb", 1e9);
        let len = m.params().freq_ladder.len();
        let err = m.simulate_config_at(&p, Configuration::One, len).unwrap_err();
        assert_eq!(err, SimError::InvalidFreqStep { step: len, ladder_len: len });
        let placement = Configuration::One.placement(m.topology());
        assert!(m.simulate_phase_at(&p, &placement, 99).is_err());
    }

    #[test]
    fn ladder_simulation_matches_per_step_simulation() {
        let m = machine();
        let p = PhaseProfile::cache_sensitive("cs", 1e9);
        for cfg in Configuration::ALL {
            let ladder = m.simulate_config_ladder(&p, cfg);
            assert_eq!(ladder.len(), m.params().freq_ladder.len());
            for (step, exec) in ladder.iter().enumerate() {
                assert_eq!(exec, &m.simulate_config_at(&p, cfg, step).unwrap(), "step {step}");
            }
        }
    }

    #[test]
    fn config_labels_carry_the_step_only_when_downclocked() {
        let m = machine();
        let p = PhaseProfile::compute_bound("cb", 1e9);
        assert_eq!(
            m.simulate_config_at(&p, Configuration::TwoLoose, 0).unwrap().config_label,
            "2b"
        );
        assert_eq!(
            m.simulate_config_at(&p, Configuration::TwoLoose, 2).unwrap().config_label,
            "2b@f2"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut params = MachineParams::xeon_qx6600();
        params.clock_ghz = -1.0;
        assert!(Machine::new(Topology::quad_core_xeon(), params).is_err());
    }
}
