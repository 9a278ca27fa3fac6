//! Cross-crate I/O round trips on real designs: Verilog-lite,
//! Liberty-lite and SNL all survive write→parse with the design's
//! semantics intact, and every reader of outside bytes (SNL, JSON,
//! flow configs, wire frames, `.plc` cache entries) survives a seeded
//! corpus of mutated/malformed inputs without panicking.

use selective_mt::base::SplitMix64;
use selective_mt::cells::liberty;
use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
use selective_mt::circuits::rtl::circuit_b_rtl_sized;
use selective_mt::netlist::netlist::Netlist;
use selective_mt::netlist::verilog;
use selective_mt::place::{place, PlacerConfig};
use selective_mt::sim::check_equivalence;
use selective_mt::synth::{snl, synthesize, SynthOptions};

#[test]
fn verilog_roundtrip_preserves_function() {
    let lib = Library::industrial_130nm();
    let n = synthesize(&circuit_b_rtl_sized(8), &lib, &SynthOptions::default()).unwrap();
    let text = verilog::write_with_lib(&n, &lib);
    let back = verilog::parse(&text, &lib).unwrap();
    assert_eq!(n.num_instances(), back.num_instances());
    let eq = check_equivalence(&n, &back, &lib, 64, 9).unwrap();
    assert!(eq.is_equivalent(), "{:?}", eq.mismatches.first());
}

#[test]
fn liberty_roundtrip_preserves_electricals() {
    let lib = Library::industrial_130nm();
    let text = liberty::write(&lib);
    let back = liberty::parse(&text, lib.tech.clone()).unwrap();
    assert_eq!(lib.len(), back.len());
    // A netlist mapped against the parsed library times identically.
    let n = synthesize(&circuit_b_rtl_sized(6), &back, &SynthOptions::default()).unwrap();
    assert!(n.num_instances() > 50);
}

/// The SNL corpus: every generator family at smoke scale, a synthesized
/// RTL design, and the paper's figure circuit.
fn snl_corpus(lib: &Library) -> Vec<(String, Netlist)> {
    let mut corpus: Vec<(String, Netlist)> = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .map(|w| {
            let n = generate(lib, &w.config).unwrap();
            (w.name, n)
        })
        .collect();
    corpus.push((
        "circuit_b".to_owned(),
        synthesize(&circuit_b_rtl_sized(6), lib, &SynthOptions::default()).unwrap(),
    ));
    corpus.push((
        "fig_example".to_owned(),
        selective_mt::circuits::figures::fig_example(lib).netlist,
    ));
    corpus
}

#[test]
fn snl_roundtrip_preserves_function_across_the_corpus() {
    let lib = Library::industrial_130nm();
    for (name, n) in snl_corpus(&lib) {
        let text = snl::write(&n, &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = snl::read(&text, &lib, &SynthOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let eq = check_equivalence(&n, &back, &lib, 64, 17).unwrap();
        assert!(eq.is_equivalent(), "{name}: {:?}", eq.mismatches.first());
    }
}

#[test]
fn snl_structural_load_reproduces_the_written_netlist() {
    // `load` (unlike the re-synthesising `read`) must reconstruct the
    // written netlist one-to-one: same function, and the gate count
    // grows only by the alias buffer each internally-named output port
    // needs in the text. `write(load(write(n)))` is a fixed point
    // immediately — no normalisation trips.
    let lib = Library::industrial_130nm();
    for (name, n) in snl_corpus(&lib) {
        let text = snl::write(&n, &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = snl::load(&text, &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
        let aliases = n
            .ports()
            .filter(|(_, p)| {
                p.dir == selective_mt::netlist::netlist::PortDir::Output
                    && n.net(p.net).name != p.name
            })
            .count();
        assert_eq!(
            back.num_instances(),
            n.num_instances() + aliases,
            "{name}: structural load must not restructure logic"
        );
        let eq = check_equivalence(&n, &back, &lib, 64, 23).unwrap();
        assert!(eq.is_equivalent(), "{name}: {:?}", eq.mismatches.first());
        let again = snl::write(&back, &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            again,
            snl::write(&snl::load(&again, &lib).unwrap(), &lib).unwrap(),
            "{name}: write∘load must be a fixed point"
        );
    }
}

#[test]
fn snl_load_rejects_malformed_structure() {
    let lib = Library::industrial_130nm();
    // Duplicate driver.
    let dup = ".model m\n.inputs a\n.outputs y\n.gate inv A=a Z=y\n.gate buf A=a Z=y\n.end\n";
    assert!(snl::load(dup, &lib).is_err());
    // Dangling net: consumed but never driven.
    let dangling = ".model m\n.inputs a\n.outputs y\n.gate nd2 A=a B=ghost Z=y\n.end\n";
    assert!(snl::load(dangling, &lib).is_err());
    // Latch without a clock.
    let unclocked = ".model m\n.inputs a\n.outputs q\n.latch a q\n.end\n";
    assert!(snl::load(unclocked, &lib).is_err());
    // Undriven output.
    let no_out = ".model m\n.inputs a\n.outputs nope\n.gate inv A=a Z=y\n.end\n";
    assert!(snl::load(no_out, &lib).is_err());
    // Duplicate output (matching `read`'s rejection).
    let dup_out = ".model m\n.inputs a\n.outputs y y\n.gate inv A=a Z=y\n.end\n";
    assert!(snl::load(dup_out, &lib).is_err());
}

#[test]
fn snl_write_read_write_reaches_a_fixed_point_across_the_corpus() {
    // `read` is a re-synthesis, so the first trip (or two, for designs
    // rich in complex-gate covers) normalises the structure into the
    // mapper's normal form; that normal form must be a true fixed point
    // of write → parse → write, verified by one extra trip.
    let lib = Library::industrial_130nm();
    for (name, n) in snl_corpus(&lib) {
        let mut text = snl::write(&n, &lib).unwrap();
        let mut fixed = false;
        for _trip in 0..3 {
            let back = snl::read(&text, &lib, &SynthOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let next = snl::write(&back, &lib).unwrap();
            if next == text {
                fixed = true;
                break;
            }
            text = next;
        }
        assert!(fixed, "{name}: no fixed point within three trips");
        // And it stays fixed.
        let back = snl::read(&text, &lib, &SynthOptions::default()).unwrap();
        assert_eq!(snl::write(&back, &lib).unwrap(), text, "{name}");
    }
}

#[test]
fn snl_malformed_inputs_error_instead_of_panicking() {
    // Hand-picked malformations of every class the parser must reject.
    for (what, text) in [
        (
            "dangling net",
            ".model m\n.inputs a\n.outputs y\n.gate an2 A=a B=ghost Z=y\n.end\n",
        ),
        (
            "duplicate driver",
            ".model m\n.inputs a b\n.outputs y\n.gate inv A=a Z=y\n.gate inv A=b Z=y\n.end\n",
        ),
        (
            "duplicate driver via latch",
            ".model m\n.inputs a\n.clock clk\n.outputs q\n.latch a q\n.gate inv A=a Z=q\n.end\n",
        ),
        (
            "truncated",
            ".model m\n.inputs a\n.outputs y\n.gate buf A=a Z=y\n",
        ),
        ("empty", ""),
        ("no model", ".inputs a\n.end\n"),
        (
            "undriven output",
            ".model m\n.inputs a\n.outputs nothing\n.end\n",
        ),
    ] {
        assert!(snl::parse(text).is_err(), "{what} was accepted");
    }
}

/// Printable junk for byte smashes: structural characters of every
/// format under fuzz (SNL, JSON, NDJSON frames, `.plc` hex records).
const JUNK: &[u8] = b"=.( z0\"{}[],:-e9\n";

/// One seeded mutation of an ASCII text: truncate at a byte, drop a
/// span, duplicate a span, or smash up to four bytes with [`JUNK`]. ASCII
/// in, ASCII out, so text readers can take the result as UTF-8.
fn mutate(rng: &mut SplitMix64, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let len = bytes.len();
    // A span of 1..=64 bytes starting anywhere.
    let start = rng.next_below(len);
    let end = start + 1 + rng.next_below((len - start).min(64));
    match rng.next_below(4) {
        0 => bytes.truncate(start),
        1 => {
            bytes.drain(start..end);
        }
        2 => {
            let span = bytes[start..end].to_vec();
            bytes.splice(end..end, span);
        }
        _ => {
            for _ in 0..1 + rng.next_below(4) {
                let idx = rng.next_below(len);
                bytes[idx] = JUNK[rng.next_below(JUNK.len())];
            }
        }
    }
    bytes
}

#[test]
fn snl_seeded_mutation_fuzz_never_panics() {
    // Take a valid corpus text and apply hundreds of seeded mutations
    // (see `mutate`). Every parse must return Ok or Err; a panic fails
    // the harness.
    let lib = Library::industrial_130nm();
    let base = snl::write(
        &generate(&lib, &standard_suite(SuiteScale::Smoke)[0].config).unwrap(),
        &lib,
    )
    .unwrap();
    let mut rng = SplitMix64::new(20050307);
    for _ in 0..300 {
        let text =
            String::from_utf8(mutate(&mut rng, base.as_bytes())).expect("ascii in, ascii out");
        // Ok or Err both fine — only a panic (or a wrong Ok on text the
        // parser then chokes mapping) is a bug. When the text still
        // parses, mapping it must succeed too.
        if let Ok(design) = snl::parse(&text) {
            let _ = selective_mt::synth::map_to_netlist(&design, &lib, &SynthOptions::default());
        }
    }
}

/// A reader of outside bytes: `Ok`, or its typed error rendered.
type Reader<'a> = Box<dyn Fn(&[u8]) -> Result<(), String> + 'a>;

/// One reader under fuzz, with a valid input to mutate.
struct FuzzRow<'a> {
    reader: &'static str,
    base: Vec<u8>,
    read: Reader<'a>,
}

#[test]
fn outside_byte_readers_survive_seeded_mutation_fuzz() {
    use selective_mt::base::{json, proto::FrameReader};
    use selective_mt::core::flow::FlowConfig;
    use selective_mt::place::{decode_placement, encode_placement};

    let lib = Library::industrial_130nm();
    let design = generate(&lib, &standard_suite(SuiteScale::Smoke)[0].config).unwrap();
    let placement = place(&design, &lib, &PlacerConfig::default());
    let config = FlowConfig::default().to_json();
    let ping = r#"{"id":1,"method":"ping","params":{}}"#;
    let flow =
        format!(r#"{{"id":2,"method":"flow","params":{{"design":"pipeline","config":{config}}}}}"#);
    let swap = r#"{"id":3,"method":"vth-swap","params":{"max_high_fraction":0.6,"note":"a\"b\u00e9","x":[-1.5e-3,null,true]}}"#;
    let document = format!("[{ping},{flow},{swap}]");
    let frames = format!("{ping}\n{flow}\n\n{swap}\n");
    let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).expect("ascii in, ascii out");
    let rows = [
        FuzzRow {
            reader: "smt_place::decode_placement",
            base: encode_placement(&placement).into_bytes(),
            read: Box::new(|b| {
                decode_placement(&text(b))
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        },
        FuzzRow {
            reader: "smt_base::json::parse",
            base: document.into_bytes(),
            read: Box::new(|b| json::parse(&text(b)).map(drop).map_err(|e| e.to_string())),
        },
        FuzzRow {
            reader: "FlowConfig::from_json",
            base: config.clone().into_bytes(),
            read: Box::new(|b| {
                FlowConfig::from_json(&text(b))
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        },
        FuzzRow {
            reader: "proto::FrameReader::read_frame",
            base: frames.into_bytes(),
            read: Box::new(|b| {
                // A small cap so the frame-too-long path is reachable.
                let mut reader = FrameReader::with_max_frame(b, 96);
                while reader.read_frame().map_err(|e| e.to_string())?.is_some() {}
                Ok(())
            }),
        },
        FuzzRow {
            reader: "snl::load",
            base: snl::write(&design, &lib).unwrap().into_bytes(),
            read: Box::new(|b| {
                snl::load(&text(b), &lib)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        },
    ];

    let mut rng = SplitMix64::new(20051005);
    for row in &rows {
        (row.read)(&row.base)
            .unwrap_or_else(|e| panic!("{}: valid base rejected: {e}", row.reader));
        let (mut ok, mut err) = (0, 0);
        for round in 0..400 {
            let input = mutate(&mut rng, &row.base);
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (row.read)(&input)));
            match outcome {
                Ok(Ok(())) => ok += 1,
                Ok(Err(message)) => {
                    assert!(
                        !message.is_empty(),
                        "{}: error without a message",
                        row.reader
                    );
                    err += 1;
                }
                Err(_) => panic!(
                    "{} panicked on mutation round {round}; input:\n{}",
                    row.reader,
                    String::from_utf8_lossy(&input)
                ),
            }
        }
        // The mutations must actually reach the error paths.
        assert!(
            err > 0,
            "{}: no mutation was rejected ({ok} accepted)",
            row.reader
        );
    }
}
