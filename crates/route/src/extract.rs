//! Parasitic extraction: per-net RC trees and Elmore delays.
//!
//! Two fidelity levels, matching the two points in Fig. 4 where the flow
//! consumes RC:
//!
//! * [`Parasitics::estimate`] — pre-route, from placement HPWL (what the
//!   first switch-structure construction uses);
//! * [`Parasitics::extract`] — post-route, from the global router's
//!   per-net routed lengths distributed over the net's Steiner topology
//!   (what the re-optimization uses; the "SPEF" of the paper).

use crate::global::{net_pins, GlobalRoute};
use crate::steiner::steiner_tree;
use smt_base::fingerprint::Fnv64;
use smt_base::units::{Cap, Res, Time};
use smt_cells::library::Library;
use smt_netlist::netlist::{NetId, Netlist};
use smt_place::estimate::estimate_net_rc;
use smt_place::Placement;
use std::sync::atomic::{AtomicU64, Ordering};

static REEXTRACTIONS_AVOIDED: AtomicU64 = AtomicU64::new(0);

/// Number of per-net extractions [`Parasitics::update`] skipped because
/// the net's extraction fingerprint was unchanged (process-wide).
pub fn reextractions_avoided() -> u64 {
    REEXTRACTIONS_AVOIDED.load(Ordering::Relaxed)
}

/// Extracted parasitics of one net.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetParasitics {
    /// Wire length, µm.
    pub length_um: f64,
    /// Total wire capacitance (pin caps not included).
    pub wire_cap: Cap,
    /// Total wire resistance.
    pub wire_res: Res,
    /// Per-sink wire Elmore delay (driver resistance excluded), in load
    /// order: instance loads first, then port loads.
    pub sink_elmore: Vec<Time>,
}

impl NetParasitics {
    /// Wire Elmore for the `k`-th sink (instance loads first). Falls back
    /// to the worst sink when the index is out of range (defensive: sink
    /// lists can grow between extraction and query during ECO).
    pub fn elmore(&self, k: usize) -> Time {
        self.sink_elmore
            .get(k)
            .copied()
            .or_else(|| self.sink_elmore.iter().copied().reduce(Time::max))
            .unwrap_or(Time::ZERO)
    }
}

/// Parasitics for every net of a design.
#[derive(Debug, Clone, Default)]
pub struct Parasitics {
    /// Indexed by `NetId::index()`.
    pub nets: Vec<NetParasitics>,
    /// True when produced by post-route extraction.
    pub post_route: bool,
    /// Per-net extraction fingerprints (empty for estimates): everything a net's extraction depends on — pin positions,
    /// sink cells, port loads, routed length — so [`Parasitics::update`]
    /// can prove a cached entry is still exact.
    pub(crate) fps: Vec<u64>,
}

impl Parasitics {
    /// Parasitics of one net. Nets created *after* extraction (hold-fix
    /// buffers, MTE buffers) read as zero-RC — conservative for the ECO
    /// checks that run on them.
    pub fn net(&self, id: NetId) -> &NetParasitics {
        const EMPTY: &NetParasitics = &NetParasitics {
            length_um: 0.0,
            wire_cap: Cap::ZERO,
            wire_res: Res::ZERO,
            sink_elmore: Vec::new(),
        };
        self.nets.get(id.index()).unwrap_or(EMPTY)
    }

    /// Pre-route estimate: lumped RC from placement HPWL; every sink sees
    /// half the wire resistance times the wire cap (π-model average).
    pub fn estimate(netlist: &Netlist, lib: &Library, placement: &Placement) -> Self {
        let mut nets = Vec::with_capacity(netlist.num_nets());
        for (id, net) in netlist.nets() {
            let rc = estimate_net_rc(netlist, lib, placement, id);
            let n_sinks = net.loads.len() + net.port_loads.len();
            let elmore = Time::new(0.5 * rc.res.kohm() * rc.cap.ff());
            nets.push(NetParasitics {
                length_um: rc.length_um,
                wire_cap: rc.cap,
                wire_res: rc.res,
                sink_elmore: vec![elmore; n_sinks],
            });
        }
        Parasitics {
            nets,
            post_route: false,
            fps: Vec::new(),
        }
    }

    /// Post-route extraction: rebuilds each net's Steiner topology, scales
    /// it to the routed length, loads sink pin caps, and computes per-sink
    /// Elmore delays on the RC tree.
    pub fn extract(
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        route: &GlobalRoute,
    ) -> Self {
        let mut nets = Vec::with_capacity(netlist.num_nets());
        let mut fps = Vec::with_capacity(netlist.num_nets());
        for (id, _) in netlist.nets() {
            nets.push(extract_net(netlist, lib, placement, id, route.length(id)));
            fps.push(net_ext_fp(netlist, placement, id, route.length(id)));
        }
        Parasitics {
            nets,
            post_route: true,
            fps,
        }
    }

    /// Incremental post-route re-extraction: nets whose extraction
    /// fingerprint (pins, sink cells, port loads, routed length) is
    /// unchanged from `prev` keep their cached entry; everything else
    /// runs through the same per-net extraction as
    /// [`Parasitics::extract`], so the result is bit-identical to a
    /// from-scratch extraction of the same inputs. `prev` must itself be
    /// post-route with fingerprints (otherwise every net re-extracts and
    /// the call degrades to a full pass).
    pub fn update(
        mut prev: Parasitics,
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        route: &GlobalRoute,
    ) -> Self {
        let reusable = prev.post_route && prev.fps.len() == prev.nets.len();
        let mut nets = Vec::with_capacity(netlist.num_nets());
        let mut fps = Vec::with_capacity(netlist.num_nets());
        for (id, _) in netlist.nets() {
            let fp = net_ext_fp(netlist, placement, id, route.length(id));
            if reusable && prev.fps.get(id.index()) == Some(&fp) {
                REEXTRACTIONS_AVOIDED.fetch_add(1, Ordering::Relaxed);
                // `prev` is consumed, so a proven-fresh entry moves over
                // without cloning its per-sink buffers.
                nets.push(std::mem::take(&mut prev.nets[id.index()]));
            } else {
                nets.push(extract_net(netlist, lib, placement, id, route.length(id)));
            }
            fps.push(fp);
        }
        Parasitics {
            nets,
            post_route: true,
            fps,
        }
    }
}

/// Everything one net's extraction depends on (besides the library,
/// which is fixed for a flow): ordered pin positions, instance-sink
/// cells and pin indices, port-load identities, and the routed length.
/// Pin positions are streamed with [`net_pins`]' framing (driver first,
/// instance loads, then port loads; empty when undriven) without
/// materialising the list — the revalidation scan in
/// [`Parasitics::update`] touches every net, so it must not allocate.
fn net_ext_fp(netlist: &Netlist, placement: &Placement, id: NetId, routed: f64) -> u64 {
    let net = netlist.net(id);
    let mut h = Fnv64::new();
    match net.driver {
        None => h.write_usize(0),
        Some(driver) => {
            let d = match driver {
                smt_netlist::netlist::NetDriver::Inst(pr) => placement.loc(pr.inst),
                smt_netlist::netlist::NetDriver::Port(p) => placement.port_loc(p),
            };
            h.write_usize(1 + net.loads.len() + net.port_loads.len());
            h.write_f64(d.x);
            h.write_f64(d.y);
            for pr in &net.loads {
                let p = placement.loc(pr.inst);
                h.write_f64(p.x);
                h.write_f64(p.y);
            }
            for p in &net.port_loads {
                let p = placement.port_loc(*p);
                h.write_f64(p.x);
                h.write_f64(p.y);
            }
        }
    }
    h.write_usize(net.loads.len());
    for pr in &net.loads {
        h.write_u64(u64::from(pr.inst.0));
        h.write_usize(pr.pin);
        h.write_usize(netlist.inst(pr.inst).cell.0 as usize);
    }
    h.write_usize(net.port_loads.len());
    for p in &net.port_loads {
        h.write_u64(u64::from(p.0));
    }
    h.write_f64(routed);
    h.finish()
}

/// Post-route extraction of one net (the per-net body both
/// [`Parasitics::extract`] and [`Parasitics::update`] share).
fn extract_net(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    id: NetId,
    route_len: f64,
) -> NetParasitics {
    let net = netlist.net(id);
    let pins = net_pins(netlist, placement, id);
    let n_sinks = net.loads.len() + net.port_loads.len();
    if pins.len() < 2 {
        return NetParasitics::default();
    }
    let tree = steiner_tree(&pins);
    let topo_len = tree.wirelength().max(1e-6);
    let routed = route_len.max(topo_len);
    let scale = routed / topo_len;

    // Sink pin caps, in the same order as `pins[1..]`.
    let mut sink_cap = vec![Cap::ZERO; pins.len()];
    for (k, pr) in net.loads.iter().enumerate() {
        let cell = lib.cell(netlist.inst(pr.inst).cell);
        sink_cap[1 + k] = cell.pins[pr.pin].cap;
    }
    // Port loads get a pad cap.
    for k in 0..net.port_loads.len() {
        sink_cap[1 + net.loads.len() + k] = Cap::new(2.0);
    }

    // Node caps: half of each incident edge's wire cap + pin cap.
    let n_nodes = tree.nodes.len();
    let mut node_cap = vec![Cap::ZERO; n_nodes];
    let mut edge_res = vec![Res::ZERO; n_nodes]; // resistance of edge to parent
    for (child, parent) in tree.edges() {
        let len = tree.nodes[child].manhattan(tree.nodes[parent]) * scale;
        let c = lib.tech.wire_cap(len);
        let r = lib.tech.wire_res(len);
        node_cap[child] += c * 0.5;
        node_cap[parent] += c * 0.5;
        edge_res[child] = r;
    }
    for (i, &c) in sink_cap.iter().enumerate() {
        node_cap[i] += c;
    }

    // Downstream cap per node (children of each node first).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (child, parent) in tree.edges() {
        children[parent].push(child);
    }
    let mut down_cap = node_cap.clone();
    // Process nodes in reverse BFS order from root.
    let mut order = vec![0usize];
    let mut qi = 0;
    while qi < order.len() {
        let v = order[qi];
        qi += 1;
        for &c in &children[v] {
            order.push(c);
        }
    }
    for &v in order.iter().rev() {
        for &c in &children[v] {
            let add = down_cap[c];
            down_cap[v] += add;
        }
    }

    // Elmore to each node: parent's + R_edge * down_cap(node).
    let mut elmore = vec![Time::ZERO; n_nodes];
    for &v in &order {
        if v == 0 {
            continue;
        }
        let p = tree.parent[v];
        elmore[v] = elmore[p] + edge_res[v] * down_cap[v];
    }

    let wire_cap = lib.tech.wire_cap(routed);
    let wire_res = lib.tech.wire_res(routed);
    let sink_elmore: Vec<Time> = (0..n_sinks).map(|k| elmore[1 + k]).collect();
    NetParasitics {
        length_um: routed,
        wire_cap,
        wire_res,
        sink_elmore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::RouteConfig;
    use crate::router::Router;
    use smt_place::{place, PlacerConfig};

    fn chain(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for i in 0..len {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "Z", w, lib).unwrap();
            prev = w;
        }
        n.expose_output("z", prev);
        n
    }

    #[test]
    fn estimate_and_extract_are_consistent() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 40);
        let p = place(&n, &lib, &PlacerConfig::default());
        let est = Parasitics::estimate(&n, &lib, &p);
        let gr = Router::route(&n, &lib, &p, &RouteConfig::default(), 0)
            .global()
            .clone();
        let ext = Parasitics::extract(&n, &lib, &p, &gr);
        assert!(!est.post_route);
        assert!(ext.post_route);
        assert_eq!(est.nets.len(), ext.nets.len());
        // Aggregate lengths agree within a factor (estimate vs routed).
        let le: f64 = est.nets.iter().map(|x| x.length_um).sum();
        let lx: f64 = ext.nets.iter().map(|x| x.length_um).sum();
        assert!(lx > 0.0 && le > 0.0);
        assert!(lx / le < 4.0 && le / lx < 4.0, "est {le} vs ext {lx}");
    }

    #[test]
    fn elmore_increases_with_distance() {
        // Driver with two sinks at different distances: farther sink sees
        // larger wire elmore.
        let lib = Library::industrial_130nm();
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let w = n.add_net("w");
        let z0 = n.add_output("z0");
        let z1 = n.add_output("z1");
        let inv = lib.find_id("INV_X1_L").unwrap();
        let drv = n.add_instance("drv", inv, &lib);
        let s0 = n.add_instance("s0", inv, &lib);
        let s1 = n.add_instance("s1", inv, &lib);
        n.connect_by_name(drv, "A", a, &lib).unwrap();
        n.connect_by_name(drv, "Z", w, &lib).unwrap();
        n.connect_by_name(s0, "A", w, &lib).unwrap();
        n.connect_by_name(s0, "Z", z0, &lib).unwrap();
        n.connect_by_name(s1, "A", w, &lib).unwrap();
        n.connect_by_name(s1, "Z", z1, &lib).unwrap();
        let mut p = place(&n, &lib, &PlacerConfig::default());
        // Force known geometry: s1 is 10x farther.
        p.set_loc(drv, smt_base::geom::Point::new(0.0, 2.0));
        p.set_loc(s0, smt_base::geom::Point::new(8.0, 2.0));
        p.set_loc(s1, smt_base::geom::Point::new(80.0, 2.0));
        let gr = Router::route(&n, &lib, &p, &RouteConfig::default(), 0)
            .global()
            .clone();
        let ext = Parasitics::extract(&n, &lib, &p, &gr);
        let pw = ext.net(w);
        assert_eq!(pw.sink_elmore.len(), 2);
        assert!(
            pw.sink_elmore[1] > pw.sink_elmore[0],
            "far sink must be slower: {:?}",
            pw.sink_elmore
        );
    }

    #[test]
    fn elmore_fallback_for_out_of_range_sink() {
        let p = NetParasitics {
            sink_elmore: vec![Time::new(1.0), Time::new(5.0)],
            ..Default::default()
        };
        assert_eq!(p.elmore(0), Time::new(1.0));
        assert_eq!(p.elmore(7), Time::new(5.0));
        let empty = NetParasitics::default();
        assert_eq!(empty.elmore(0), Time::ZERO);
    }
}
