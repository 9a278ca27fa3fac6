//! # smt-netlist
//!
//! Gate-level netlist model for the Selective-MT flow.
//!
//! A [`netlist::Netlist`] is an arena of instances, nets and ports.
//! Instances reference cell *types* from a [`smt_cells::library::Library`]
//! by [`smt_cells::cell::CellId`]; per-pin connectivity (driver/load lists)
//! is maintained incrementally so the Vth-replacement and switch-insertion
//! transforms of the paper can edit netlists cheaply.
//!
//! * [`netlist`] — the data model and editing operations (replace a cell
//!   variant, insert a buffer into a net, add switch/holder instances, ...);
//! * [`verilog`] — structural-Verilog-lite writer and parser (round-trip
//!   tested);
//! * [`graph`] — levelisation, topological order over the combinational
//!   core, fan-in/fan-out cones, combinational-cycle detection;
//! * [`check`] — rule-based static analysis used as the flow's invariant gate
//!   (exactly one driver per net, no floating inputs, VGND wired to a
//!   switch, ...).
//!
//! ```
//! use smt_cells::library::Library;
//! use smt_netlist::netlist::Netlist;
//!
//! let lib = Library::industrial_130nm();
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let z = n.add_output("z");
//! let inv = n.add_instance("u1", lib.find_id("INV_X1_L").unwrap(), &lib);
//! n.connect_by_name(inv, "A", a, &lib).unwrap();
//! n.connect_by_name(inv, "Z", z, &lib).unwrap();
//! assert_eq!(n.num_instances(), 1);
//! ```

pub mod check;
pub mod graph;
pub mod netlist;
pub mod verilog;

pub use netlist::{InstId, Instance, Net, NetId, Netlist, NetlistError, PinRef, PortDir, PortId};
