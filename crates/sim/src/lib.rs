//! # smt-sim
//!
//! Three-valued (`0/1/X`) levelized logic simulation over
//! [`smt_netlist::netlist::Netlist`], with:
//!
//! * **standby semantics** for MTCMOS: when the circuit is power-gated
//!   (`MTE` low), MT-cells drive `X` (their virtual ground floats) unless an
//!   output holder pins the net to `1` — exactly the behaviour the paper's
//!   output-holder rule exists to guarantee;
//! * **word-parallel simulation** ([`wordsim`]): 64 stimulus vectors per
//!   net packed into a [`wordsim::Word`] (`u64` value lanes plus a paired
//!   X mask), evaluated with bitwise truth-table expansion;
//! * **equivalence checking** between two netlists (used by the flow to
//!   verify that every transform of Fig. 4 preserves function in active
//!   mode): an AIG fraiging fast path ([`fraig`]) certifies identical
//!   cones structurally, and only the residue is simulated — 64 vectors
//!   per pass, fanned out over fan-in cone partitions;
//! * **toggle-rate estimation** for the dynamic-power model.
//!
//! ```
//! use smt_cells::library::Library;
//! use smt_netlist::netlist::Netlist;
//! use smt_sim::{Simulator, Value};
//!
//! let lib = Library::industrial_130nm();
//! let mut n = Netlist::new("inv");
//! let a = n.add_input("a");
//! let z = n.add_output("z");
//! let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
//! n.connect_by_name(u, "A", a, &lib).unwrap();
//! n.connect_by_name(u, "Z", z, &lib).unwrap();
//!
//! let mut sim = Simulator::new(&n, &lib).unwrap();
//! sim.set_input(a, Value::One);
//! sim.propagate(&n, &lib);
//! assert_eq!(sim.value(z), Value::Zero);
//! ```

pub mod equiv;
pub mod fraig;
pub mod sim;
pub mod toggle;
pub mod wordsim;

pub use equiv::{
    check_equivalence, check_equivalence_scalar, check_equivalence_with, EquivOptions, EquivReport,
    Mismatch,
};
#[allow(deprecated)]
pub use equiv::{check_equivalence_cached, EquivCache};
pub use fraig::{prove_equivalent_outputs, FraigOutcome};
pub use sim::{Mode, Simulator, Value};
pub use toggle::{estimate_toggles, ToggleStats};
pub use wordsim::{eval_tt_word, Word, WordSimulator};
