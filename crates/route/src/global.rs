//! Grid-based global routing with congestion-aware maze search and
//! rip-up & reroute.
//!
//! The die is tiled; every tile boundary has a track capacity. Each net's
//! Steiner edges are routed as two-pin connections by A* over the tile
//! graph with a congestion-penalised cost, and nets crossing overflowed
//! edges are ripped up and rerouted with a sharper penalty. The outcome
//! per net is a *routed length*, which extraction converts to post-route
//! RC — the "precise RC information which is generated after routing" of
//! the paper.

use smt_base::geom::Point;
use smt_netlist::netlist::{NetDriver, NetId, Netlist};
use smt_place::Placement;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Router options.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Tile edge length, µm.
    pub tile_um: f64,
    /// Routing tracks per tile boundary.
    pub capacity: u32,
    /// Rip-up & reroute iterations after the initial pass.
    pub rrr_iterations: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            tile_um: 8.0,
            capacity: 14,
            rrr_iterations: 2,
        }
    }
}

/// Result of global routing.
#[derive(Debug, Clone)]
pub struct GlobalRoute {
    /// Tile size used, µm.
    pub tile_um: f64,
    /// Grid dimensions in tiles.
    pub nx: usize,
    /// Grid dimensions in tiles.
    pub ny: usize,
    /// Routed length per net (µm); 0 for single-pin/unplaced nets.
    pub net_length: Vec<f64>,
    /// Total demand over capacity across edges (0 = congestion-free).
    pub overflow: u64,
    /// Peak edge utilisation (demand / capacity).
    pub peak_utilization: f64,
}

impl GlobalRoute {
    /// Routed length of one net, µm.
    pub fn length(&self, net: NetId) -> f64 {
        self.net_length[net.index()]
    }

    /// Sum of all routed lengths.
    pub fn total_length(&self) -> f64 {
        self.net_length.iter().sum()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Grid {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    /// usage of horizontal edges (between (x,y) and (x+1,y)): (nx-1)*ny
    pub(crate) h: Vec<u32>,
    /// usage of vertical edges: nx*(ny-1)
    pub(crate) v: Vec<u32>,
    pub(crate) capacity: u32,
    /// Edge count per usage value, maintained by `apply` so peak
    /// utilisation never needs an O(edges) scan.
    hist: Vec<u64>,
    /// Running total of usage above capacity, maintained by `apply`.
    over: u64,
}

impl Grid {
    pub(crate) fn empty(nx: usize, ny: usize, capacity: u32) -> Grid {
        Grid {
            nx,
            ny,
            h: vec![0; (nx - 1) * ny],
            v: vec![0; nx * (ny - 1)],
            capacity,
            hist: vec![((nx - 1) * ny + nx * (ny - 1)) as u64],
            over: 0,
        }
    }

    fn h_idx(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }
    fn v_idx(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    fn edge_cost(&self, usage: u32, weight: f64) -> f64 {
        let u = usage as f64 / self.capacity as f64;
        1.0 + weight * u.powi(3)
    }

    /// A* route between two tiles; returns the tile path.
    pub(crate) fn route(
        &self,
        from: (usize, usize),
        to: (usize, usize),
        weight: f64,
    ) -> Vec<(usize, usize)> {
        let idx = |x: usize, y: usize| y * self.nx + x;
        let mut dist = vec![f64::INFINITY; self.nx * self.ny];
        let mut prev = vec![usize::MAX; self.nx * self.ny];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let h_est = |x: usize, y: usize| {
            ((x as f64 - to.0 as f64).abs() + (y as f64 - to.1 as f64).abs()) * 1.0
        };
        dist[idx(from.0, from.1)] = 0.0;
        let key = |d: f64| (d * 1024.0) as u64;
        heap.push(Reverse((key(h_est(from.0, from.1)), idx(from.0, from.1))));
        while let Some(Reverse((_, u))) = heap.pop() {
            let (x, y) = (u % self.nx, u / self.nx);
            if (x, y) == to {
                break;
            }
            let du = dist[u];
            let mut neighbours: [(isize, isize, f64); 4] =
                [(1, 0, 0.0), (-1, 0, 0.0), (0, 1, 0.0), (0, -1, 0.0)];
            for n in &mut neighbours {
                let nx = x as isize + n.0;
                let ny = y as isize + n.1;
                if nx < 0 || ny < 0 || nx as usize >= self.nx || ny as usize >= self.ny {
                    n.2 = f64::INFINITY;
                    continue;
                }
                let usage = if n.0 != 0 {
                    self.h[self.h_idx(x.min(nx as usize), y)]
                } else {
                    self.v[self.v_idx(x, y.min(ny as usize))]
                };
                n.2 = self.edge_cost(usage, weight);
            }
            for n in neighbours {
                if !n.2.is_finite() {
                    continue;
                }
                let vx = (x as isize + n.0) as usize;
                let vy = (y as isize + n.1) as usize;
                let v = idx(vx, vy);
                let nd = du + n.2;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((key(nd + h_est(vx, vy)), v)));
                }
            }
        }
        // Reconstruct.
        let mut path = Vec::new();
        let mut cur = idx(to.0, to.1);
        if prev[cur] == usize::MAX && from != to {
            return vec![from, to]; // disconnected fallback (never with a full grid)
        }
        while cur != usize::MAX {
            path.push((cur % self.nx, cur / self.nx));
            if (cur % self.nx, cur / self.nx) == from {
                break;
            }
            cur = prev[cur];
        }
        path.reverse();
        path
    }

    pub(crate) fn apply(&mut self, path: &[(usize, usize)], dir: i32) {
        for w in path.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let u = if y0 == y1 {
                let i = self.h_idx(x0.min(x1), y0);
                let old = self.h[i];
                self.h[i] = (old as i64 + dir as i64).max(0) as u32;
                (old, self.h[i])
            } else {
                let i = self.v_idx(x0, y0.min(y1));
                let old = self.v[i];
                self.v[i] = (old as i64 + dir as i64).max(0) as u32;
                (old, self.v[i])
            };
            let (old, new) = u;
            if old == new {
                continue;
            }
            self.hist[old as usize] -= 1;
            if new as usize >= self.hist.len() {
                self.hist.resize(new as usize + 1, 0);
            }
            self.hist[new as usize] += 1;
            // Overflow contribution is max(usage - capacity, 0); a ±1
            // step changes it by ±1 exactly when the higher of the two
            // values is above capacity.
            if old.max(new) > self.capacity {
                if new > old {
                    self.over += 1;
                } else {
                    self.over -= 1;
                }
            }
        }
    }

    pub(crate) fn path_overflows(&self, path: &[(usize, usize)]) -> bool {
        for w in path.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let usage = if y0 == y1 {
                self.h[self.h_idx(x0.min(x1), y0)]
            } else {
                self.v[self.v_idx(x0, y0.min(y1))]
            };
            if usage > self.capacity {
                return true;
            }
        }
        false
    }

    pub(crate) fn overflow(&self) -> u64 {
        self.over
    }

    pub(crate) fn peak_utilization(&self) -> f64 {
        // `hist` keeps trailing zero buckets after usage drops; the scan
        // is over distinct usage values, not edges.
        let m = self.hist.iter().rposition(|&c| c > 0).unwrap_or(0);
        m as f64 / self.capacity as f64
    }
}

/// Collects the pin points of a net (driver first).
pub(crate) fn net_pins(netlist: &Netlist, placement: &Placement, net: NetId) -> Vec<Point> {
    let n = netlist.net(net);
    let mut pins = Vec::with_capacity(1 + n.loads.len() + n.port_loads.len());
    match n.driver {
        Some(NetDriver::Inst(pr)) => pins.push(placement.loc(pr.inst)),
        Some(NetDriver::Port(p)) => pins.push(placement.port_loc(p)),
        None => return Vec::new(),
    }
    for pr in &n.loads {
        pins.push(placement.loc(pr.inst));
    }
    for p in &n.port_loads {
        pins.push(placement.port_loc(*p));
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use smt_cells::library::Library;
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
    fn routes_all_nets_with_positive_length() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 50);
        let p = place(&n, &lib, &PlacerConfig::default());
        let gr = Router::route(&n, &lib, &p, &RouteConfig::default(), 0)
            .global()
            .clone();
        assert!(gr.total_length() > 0.0);
        // Routed length should be within a sane factor of HPWL.
        let hpwl = p.hpwl(&n);
        assert!(
            gr.total_length() < hpwl * 4.0 + 200.0,
            "routed {} vs hpwl {hpwl}",
            gr.total_length()
        );
    }

    #[test]
    fn congestion_free_small_design() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 20);
        let p = place(&n, &lib, &PlacerConfig::default());
        let gr = Router::route(&n, &lib, &p, &RouteConfig::default(), 0)
            .global()
            .clone();
        assert_eq!(gr.overflow, 0, "peak = {}", gr.peak_utilization);
    }

    #[test]
    fn tight_capacity_triggers_rrr_but_still_routes() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 60);
        let p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig {
            capacity: 1,
            ..RouteConfig::default()
        };
        let gr = Router::route(&n, &lib, &p, &cfg, 0).global().clone();
        // Every multi-pin net still gets a length.
        for (id, net) in n.nets() {
            if net.driver.is_some() && !net.loads.is_empty() {
                let pins = net_pins(&n, &p, id);
                let spread = pins.iter().any(|&q| q.manhattan(pins[0]) > gr.tile_um);
                if spread {
                    assert!(gr.length(id) > 0.0, "net {} unrouted", net.name);
                }
            }
        }
    }
}
