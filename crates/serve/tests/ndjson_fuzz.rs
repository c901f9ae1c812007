//! Fuzzers for the NDJSON request parser, [`Json::parse`] and
//! [`parse_request`]. Two kinds of input: arbitrary bytes (converted to UTF-8
//! lossily, as the session reader hands over only valid UTF-8), and a valid
//! `generate` line with one random edit — a splice, an overwrite, a
//! truncation or a `[`/`{` run far past the nesting cap. Every input must
//! come back as `Err` or a valid value, never a panic.

use dnnip_serve::json::Json;
use dnnip_serve::protocol::parse_request;
use proptest::prelude::*;

/// A valid `generate` request line with every field the parser reads.
const GENERATE: &str = r#"{"id":"g1","model":"mnist-scaled","strategy":"combined","budget":2,"criterion":"neuron-activation:0.25","gradgen_steps":2,"seed":7,"deadline_ms":5000,"pool":{"synthetic":8,"seed":2}}"#;

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), len)
}

/// Whether every number in `value` is finite.
fn finite(value: &Json) -> bool {
    match value {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(finite),
        Json::Obj(members) => members.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// Feed `text` to both parsers: each answers `Err` or a valid value.
fn check(text: &str) -> TestCaseResult {
    let parsed = Json::parse(text);
    if let Ok(value) = &parsed {
        // A parsed document serializes on one line and, when its numbers
        // are finite, parses back to itself.
        let line = value.to_string();
        prop_assert!(!line.contains('\n'), "multi-line output {:?}", line);
        if finite(value) {
            prop_assert_eq!(&Json::parse(&line), &parsed);
        }
    }
    if let Ok(request) = parse_request(text) {
        // A request comes only from a JSON object, and echoes its id.
        let value = parsed.expect("a parsed request is valid JSON");
        let id = value.get("id").and_then(Json::as_str).unwrap_or("");
        prop_assert!(value.as_object().is_some());
        prop_assert_eq!(request.id.as_str(), id);
    }
    Ok(())
}

#[test]
fn the_seed_line_is_a_valid_generate_request() {
    assert_eq!(parse_request(GENERATE).expect("valid line").id, "g1");
    check(GENERATE).unwrap();
}

#[test]
fn a_hundred_thousand_open_brackets_are_rejected() {
    for open in ["[", "{"] {
        let deep = open.repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        assert!(parse_request(&deep).is_err());
        assert!(parse_request(&format!(r#"{{"id":"d","pool":{deep}"#)).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(raw in bytes(0..256)) {
        check(&String::from_utf8_lossy(&raw))?;
    }

    #[test]
    fn edited_generate_lines_never_panic_the_parsers(
        edit in 0u8..4,
        at in 0usize..GENERATE.len() + 1,
        junk in bytes(0..24),
        run in 65usize..4096,
    ) {
        let mut line = GENERATE.as_bytes().to_vec();
        match edit {
            0 => drop(line.splice(at..at, junk)),
            1 => drop(line.splice(at..(at + junk.len()).min(line.len()), junk)),
            2 => line.truncate(at),
            _ => drop(line.splice(at..at, [b"[{"[run % 2]].repeat(run))),
        }
        check(&String::from_utf8_lossy(&line))?;
    }
}
