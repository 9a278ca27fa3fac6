//! Leakage ledger for per-corner pricing.
//!
//! [`LeakageLedger`] caches, per instance slot, everything the leakage
//! accounting of [`crate::leakage`] needs — the cell and the captured
//! standby input state. Signoff captures it once from the final
//! netlist's standby snapshot, then re-prices the same rows at each
//! corner library without re-walking the netlist and simulator snapshot
//! per corner.
//!
//! Pricing replays the *same* per-class accumulation sequence as
//! [`crate::leakage::standby_leakage`] / [`crate::leakage::active_leakage`]
//! (instance-id order, identical float reads), so ledger totals are
//! bit-identical to the from-scratch walks at every library.

use crate::leakage::LeakageBreakdown;
use smt_cells::cell::{CellId, CellRole, VthClass};
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, Netlist};
use smt_sim::{Simulator, Value};

/// Cached leakage inputs of one instance slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LedgerRow {
    alive: bool,
    cell: CellId,
    /// Captured standby input state; `None` when any input was unknown
    /// or unconnected (prices as the cell's mean, exactly like
    /// `cell_state_leak`).
    state: Option<u32>,
}

const DEAD_ROW: LedgerRow = LedgerRow {
    alive: false,
    cell: CellId(0),
    state: None,
};

/// Which operating mode a [`LeakageLedger::price`] call accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingMode {
    /// Standby (footer switches off), states from the captured snapshot —
    /// matches `standby_leakage(…, StateSource::Snapshot)`.
    Standby,
    /// Active with mean states — matches
    /// `active_leakage(…, StateSource::Mean)`.
    ActiveMean,
}

/// Per-instance leakage rows of one netlist's standby snapshot.
#[derive(Debug, Clone, Default)]
pub struct LeakageLedger {
    rows: Vec<LedgerRow>,
}

impl LeakageLedger {
    /// Captures rows for every instance from the standby simulator
    /// snapshot (run it in `Mode::Standby` first).
    pub fn capture(netlist: &Netlist, lib: &Library, sim: &Simulator) -> Self {
        LeakageLedger {
            rows: build_rows(netlist, lib, sim),
        }
    }

    /// Prices the cached rows at `lib` — bit-identical to the matching
    /// from-scratch leakage walk over the netlist the rows were captured
    /// from, at any library sharing the cell set (corner libraries do).
    pub fn price(&self, lib: &Library, mode: PricingMode) -> LeakageBreakdown {
        let mut b = LeakageBreakdown::default();
        for row in &self.rows {
            if !row.alive {
                continue;
            }
            let cell = lib.cell(row.cell);
            let state_leak = match row.state {
                Some(s) => cell.leakage.state(s),
                None => cell.leakage.mean(),
            };
            match mode {
                PricingMode::Standby => match cell.role {
                    CellRole::Sequential => b.flip_flops += cell.standby_leak,
                    CellRole::Switch => b.shared_switches += cell.standby_leak,
                    CellRole::Holder => b.holders += cell.standby_leak,
                    CellRole::ClockBuf => b.clock_buffers += cell.standby_leak,
                    CellRole::Logic => match cell.vth {
                        VthClass::Low => b.low_vth += state_leak,
                        VthClass::High => b.high_vth += state_leak,
                        VthClass::MtEmbedded => b.mt_embedded += cell.standby_leak,
                        VthClass::MtVgnd => b.mt_vgnd_residual += cell.standby_leak,
                    },
                },
                PricingMode::ActiveMean => match cell.role {
                    CellRole::Sequential => b.flip_flops += cell.standby_leak,
                    CellRole::Switch => {} // conducting: subthreshold path shorted
                    CellRole::Holder => b.holders += cell.standby_leak,
                    CellRole::ClockBuf => b.clock_buffers += cell.standby_leak,
                    CellRole::Logic => {
                        let leak = cell.leakage.mean();
                        match cell.vth {
                            VthClass::Low => b.low_vth += leak,
                            VthClass::High => b.high_vth += leak,
                            VthClass::MtEmbedded => b.mt_embedded += leak,
                            VthClass::MtVgnd => b.mt_vgnd_residual += leak,
                        }
                    }
                },
            }
        }
        b
    }
}

/// One row per instance slot (dead slots get [`DEAD_ROW`] so indices
/// stay aligned), states read exactly like `cell_state_leak` with a
/// snapshot source: any unknown or unconnected logic input collapses the
/// row to the mean.
fn build_rows(netlist: &Netlist, lib: &Library, sim: &Simulator) -> Vec<LedgerRow> {
    let mut rows = Vec::with_capacity(netlist.inst_capacity());
    for i in 0..netlist.inst_capacity() {
        let inst = netlist.inst(InstId(i as u32));
        if inst.dead {
            rows.push(DEAD_ROW);
            continue;
        }
        let cell = lib.cell(inst.cell);
        let pins = cell.logic_input_pins();
        let mut state = Some(0u32);
        for (k, &pin) in pins.iter().enumerate() {
            match inst.net_on(pin).map(|n| sim.value(n)) {
                Some(Value::One) => {
                    if let Some(s) = state.as_mut() {
                        *s |= 1 << k;
                    }
                }
                Some(Value::Zero) => {}
                _ => {
                    state = None;
                    break;
                }
            }
        }
        rows.push(LedgerRow {
            alive: true,
            cell: inst.cell,
            state,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::{active_leakage, standby_leakage, StateSource};
    use smt_sim::Mode;

    fn mixed(lib: &Library) -> Netlist {
        let mut n = Netlist::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let w = n.add_net("w");
        let z = n.add_output("z");
        let g1 = n.add_instance("g1", lib.find_id("ND2_X1_L").unwrap(), lib);
        let g2 = n.add_instance("g2", lib.find_id("INV_X1_H").unwrap(), lib);
        n.connect_by_name(g1, "A", a, lib).unwrap();
        n.connect_by_name(g1, "B", b, lib).unwrap();
        n.connect_by_name(g1, "Z", w, lib).unwrap();
        n.connect_by_name(g2, "A", w, lib).unwrap();
        n.connect_by_name(g2, "Z", z, lib).unwrap();
        n
    }

    fn standby_snapshot(n: &Netlist, lib: &Library) -> Simulator {
        let mut sim = Simulator::new(n, lib).unwrap();
        sim.set_input(n.find_net("a").unwrap(), Value::One);
        sim.set_input(n.find_net("b").unwrap(), Value::Zero);
        sim.set_mode(Mode::Standby);
        sim.propagate(n, lib);
        sim
    }

    #[test]
    fn ledger_prices_bit_identical_to_full_walks() {
        let lib = Library::industrial_130nm();
        let n = mixed(&lib);
        let sim = standby_snapshot(&n, &lib);
        let ledger = LeakageLedger::capture(&n, &lib, &sim);
        let full_s = standby_leakage(&n, &lib, StateSource::Snapshot(&sim));
        let full_a = active_leakage(&n, &lib, StateSource::Mean);
        assert_eq!(ledger.price(&lib, PricingMode::Standby), full_s);
        assert_eq!(ledger.price(&lib, PricingMode::ActiveMean), full_a);
    }

    #[test]
    fn recapture_after_a_swap_prices_the_new_cell() {
        let lib = Library::industrial_130nm();
        let mut n = mixed(&lib);
        let before = LeakageLedger::capture(&n, &lib, &standby_snapshot(&n, &lib));

        let g1 = n.find_inst("g1").unwrap();
        n.replace_cell(g1, lib.find_id("ND2_X1_H").unwrap(), &lib)
            .unwrap();
        let sim2 = standby_snapshot(&n, &lib);
        let after = LeakageLedger::capture(&n, &lib, &sim2);
        let changed = before
            .rows
            .iter()
            .zip(&after.rows)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 1, "only the swapped gate's row moves");

        let full = standby_leakage(&n, &lib, StateSource::Snapshot(&sim2));
        assert_eq!(after.price(&lib, PricingMode::Standby), full);
    }
}
