//! Digest-verified text serialization of [`Placement`]s — the on-disk
//! format behind the flow's placement cache.
//!
//! The format follows the cache's SNL conventions: line-oriented text, a
//! version header, and a trailing FNV-1a digest over every preceding
//! line so a truncated or bit-rotted entry is detected on load instead
//! of silently mis-placing a design. Coordinates are written as the IEEE
//! bit patterns of their `f64` values (`to_bits` hex), so
//! encode → decode → encode is bit-identical — the property the cache's
//! canonicalise-once warm-run guarantee rests on.

use crate::place::Placement;
use smt_base::fingerprint::Fnv64;
use smt_base::geom::{Point, Rect};
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;

const MAGIC: &str = "SMTPLC 1";

/// Why a placement entry failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDecodeError {
    /// 1-based line of the offending text, 0 when the file ends early.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for PlacementDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "placement decode, line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for PlacementDecodeError {}

fn err(line: usize, what: impl Into<String>) -> PlacementDecodeError {
    PlacementDecodeError {
        line,
        what: what.into(),
    }
}

/// Serialises a placement. The fallback-hit counter is transient
/// diagnostics and is deliberately not stored.
pub fn encode_placement(p: &Placement) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(
        out,
        "die {:016x} {:016x} {:016x} {:016x}",
        p.die.lo.x.to_bits(),
        p.die.lo.y.to_bits(),
        p.die.hi.x.to_bits(),
        p.die.hi.y.to_bits()
    );
    let _ = write!(out, "rows {}", p.row_ys.len());
    for y in &p.row_ys {
        let _ = write!(out, " {:016x}", y.to_bits());
    }
    out.push('\n');
    let _ = writeln!(out, "ports {}", p.port_locs.len());
    for q in &p.port_locs {
        let _ = writeln!(out, "port {:016x} {:016x}", q.x.to_bits(), q.y.to_bits());
    }
    let _ = writeln!(out, "cells {}", p.locs.len());
    for (i, q) in p.locs.iter().enumerate() {
        if p.placed[i] {
            let _ = writeln!(
                out,
                "cell {} {:016x} {:016x}",
                i,
                q.x.to_bits(),
                q.y.to_bits()
            );
        }
    }
    let _ = writeln!(out, "digest {:016x}", digest_of(&out));
    out
}

/// FNV-1a over every full line already in `body` (everything before the
/// digest line itself).
fn digest_of(body: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(body);
    h.finish()
}

/// Splits off the trailing digest line and checks it against the body,
/// so no count in the body is trusted (or allocated for) before the
/// bytes are known to be what [`encode_placement`] wrote.
fn verified_body(text: &str) -> Result<&str, PlacementDecodeError> {
    let body_len = text
        .rfind("\ndigest ")
        .map(|p| p + 1)
        .ok_or_else(|| err(0, "missing trailing digest"))?;
    let (body, rest) = text.split_at(body_len);
    let line = body.lines().count() + 1;
    let (digest_line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
    if !tail.trim().is_empty() {
        return Err(err(line + 1, "content after the digest line"));
    }
    let field = digest_line["digest ".len()..].trim();
    let want =
        u64::from_str_radix(field, 16).map_err(|_| err(line, format!("bad digest `{field}`")))?;
    let got = digest_of(body);
    if got != want {
        return Err(err(
            line,
            format!("digest mismatch: entry says {want:016x}, content is {got:016x}"),
        ));
    }
    Ok(body)
}

/// Decodes [`encode_placement`] output, verifying the trailing digest.
///
/// # Errors
///
/// [`PlacementDecodeError`] naming the first bad line — wrong magic,
/// malformed fields, out-of-range cell indices, a missing or mismatched
/// digest.
pub fn decode_placement(text: &str) -> Result<Placement, PlacementDecodeError> {
    let body = verified_body(text)?;
    let mut lines = body.lines().enumerate();
    let (_, magic) = lines.next().ok_or_else(|| err(0, "empty entry"))?;
    if magic != MAGIC {
        return Err(err(1, format!("bad magic `{magic}`, want `{MAGIC}`")));
    }

    let bits = |line: usize, tok: &str| -> Result<f64, PlacementDecodeError> {
        u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|_| err(line, format!("bad f64 bits `{tok}`")))
    };

    // die
    let (i, l) = lines.next().ok_or_else(|| err(0, "missing die line"))?;
    let line = i + 1;
    let toks: Vec<&str> = l.split_whitespace().collect();
    if toks.len() != 5 || toks[0] != "die" {
        return Err(err(line, "want `die lox loy hix hiy`"));
    }
    let die = Rect::new(
        Point::new(bits(line, toks[1])?, bits(line, toks[2])?),
        Point::new(bits(line, toks[3])?, bits(line, toks[4])?),
    );

    // rows
    let (i, l) = lines.next().ok_or_else(|| err(0, "missing rows line"))?;
    let line = i + 1;
    let toks: Vec<&str> = l.split_whitespace().collect();
    if toks.len() < 2 || toks[0] != "rows" {
        return Err(err(line, "want `rows n y..`"));
    }
    let n_rows: usize = toks[1]
        .parse()
        .map_err(|_| err(line, format!("bad row count `{}`", toks[1])))?;
    if toks.len() != 2 + n_rows {
        return Err(err(
            line,
            format!("want {n_rows} row ys, got {}", toks.len() - 2),
        ));
    }
    let mut row_ys = Vec::with_capacity(n_rows);
    for t in &toks[2..] {
        row_ys.push(bits(line, t)?);
    }

    // ports
    let (i, l) = lines.next().ok_or_else(|| err(0, "missing ports line"))?;
    let line = i + 1;
    let n_ports: usize = l
        .strip_prefix("ports ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| err(line, "want `ports n`"))?;
    let mut port_locs = Vec::new();
    for _ in 0..n_ports {
        let (i, l) = lines.next().ok_or_else(|| err(0, "truncated port list"))?;
        let line = i + 1;
        let toks: Vec<&str> = l.split_whitespace().collect();
        if toks.len() != 3 || toks[0] != "port" {
            return Err(err(line, "want `port xbits ybits`"));
        }
        port_locs.push(Point::new(bits(line, toks[1])?, bits(line, toks[2])?));
    }

    // cells
    let (i, l) = lines.next().ok_or_else(|| err(0, "missing cells line"))?;
    let line = i + 1;
    let capacity: usize = l
        .strip_prefix("cells ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| err(line, "want `cells capacity`"))?;
    let mut locs = vec![Point::ORIGIN; capacity];
    let mut placed = vec![false; capacity];
    for (i, l) in lines {
        let line = i + 1;
        if let Some(rest) = l.strip_prefix("cell ") {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() != 3 {
                return Err(err(line, "want `cell index xbits ybits`"));
            }
            let idx: usize = toks[0]
                .parse()
                .map_err(|_| err(line, format!("bad cell index `{}`", toks[0])))?;
            if idx >= capacity {
                return Err(err(
                    line,
                    format!("cell index {idx} >= capacity {capacity}"),
                ));
            }
            locs[idx] = Point::new(bits(line, toks[1])?, bits(line, toks[2])?);
            placed[idx] = true;
        } else if !l.trim().is_empty() {
            return Err(err(line, format!("unexpected line `{l}`")));
        }
    }
    Ok(Placement {
        locs,
        port_locs,
        die,
        row_ys,
        placed,
        fallback_hits: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacerConfig};
    use smt_cells::library::Library;
    use smt_netlist::netlist::{InstId, Netlist};

    fn sample() -> (Netlist, Library, Placement) {
        let lib = Library::industrial_130nm();
        let mut n = Netlist::new("s");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for i in 0..20 {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, &lib);
            n.connect_by_name(u, "A", prev, &lib).unwrap();
            n.connect_by_name(u, "Z", w, &lib).unwrap();
            prev = w;
        }
        n.expose_output("z", prev);
        let p = place(&n, &lib, &PlacerConfig::default());
        (n, lib, p)
    }

    #[test]
    fn round_trip_is_bit_identical_and_reencode_is_canonical() {
        let (n, _, p) = sample();
        let text = encode_placement(&p);
        let back = decode_placement(&text).expect("decode");
        for (id, _) in n.instances() {
            let a = p.loc(id);
            let b = back.loc(id);
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits())
            );
        }
        assert_eq!(p.row_ys, back.row_ys);
        assert_eq!(p.port_locs, back.port_locs);
        assert_eq!(p.die, back.die);
        // Canonical: encoding the decoded placement reproduces the text.
        assert_eq!(encode_placement(&back), text);
    }

    #[test]
    fn unplaced_slots_survive_the_round_trip() {
        let (_, _, mut p) = sample();
        // Grow the table with one placed straggler; the slot between
        // stays unplaced and must still be unplaced after a round trip.
        let cap = p.locs.len();
        p.set_loc(
            InstId((cap + 1) as u32),
            smt_base::geom::Point::new(3.0, 4.0),
        );
        let back = decode_placement(&encode_placement(&p)).expect("decode");
        assert_eq!(back.try_loc(InstId(cap as u32)), None);
        assert_eq!(
            back.try_loc(InstId((cap + 1) as u32)),
            Some(smt_base::geom::Point::new(3.0, 4.0))
        );
    }

    #[test]
    fn corruption_is_detected() {
        let (_, _, p) = sample();
        let text = encode_placement(&p);
        // Whitespace tampering parses structurally but changes the
        // digested body.
        let broken = text.replacen("port ", "port  ", 1);
        assert_ne!(broken, text);
        assert!(decode_placement(&broken).is_err());
        // Truncation loses the digest line.
        let cut = &text[..text.len() - 20];
        assert!(decode_placement(cut).is_err());
        // A corrupted count is rejected before anything is allocated
        // for it.
        let huge = text.replacen("\ncells ", "\ncells 1799200000000", 1);
        assert!(decode_placement(&huge).is_err());
        // Garbage magic.
        assert!(decode_placement("SMTXYZ 9\n").is_err());
        // Empty.
        assert!(decode_placement("").is_err());
    }
}
