//! The parsers of outside input never panic.
//!
//! `lotteryctl replay <file>` and trace-driven captures feed arbitrary
//! files to [`json::parse`], [`ReplayLog::from_jsonl`] and
//! [`TraceSpec::from_jsonl`]. Whatever the text, each must return `Ok`
//! or `Err`. The generator splices JSON punctuation, record prefixes
//! that reach deep into the header and event decoders, multibyte
//! characters and arbitrary scalars, so most cases get past the first
//! byte.

use lottery_obs::json;
use lottery_obs::{ReplayLog, TraceSpec};
use proptest::prelude::*;

const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\n",
    " ",
    "\n",
    "0",
    "1",
    "-",
    "1e309",
    ".5",
    "e",
    "true",
    "false",
    "null",
    "tru",
    "\"kind\"",
    "\"t_us\":",
    "\"seed\":",
    "{\"replay\":1,\"seed\":7,\"draws\":0,\"structure\":\"tree\",\"shards\":2,",
    "\"compensation\":true,\"quantum_us\":1000,\"until_us\":5000,",
    "\"currencies\":[{\"name\":\"a\",\"amount\":3}],\"jobs\":[",
    "{\"trace\":1,\"currencies\":[",
    "{\"arrival_us\":0,\"service_us\":10,\"sleep_us\":0,\"tenant\":\"a\",\"tickets\":1}",
    "{\"t_us\":0,\"kind\":\"lottery-draw\",\"structure\":\"tree\",",
    "é",
    "€",
    "😀",
    "\u{0}",
    "\u{7f}",
];

/// Random text: mostly fragments, sometimes an arbitrary scalar value.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..FRAGMENTS.len() + 8, any::<u32>()), 0..64).prop_map(|parts| {
        let mut s = String::new();
        for (pick, raw) in parts {
            match FRAGMENTS.get(pick) {
                Some(f) => s.push_str(f),
                None => s.push(char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')),
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_return_instead_of_panicking(input in text()) {
        let _ = json::parse(&input);
        let _ = ReplayLog::from_jsonl(&input);
        let _ = TraceSpec::from_jsonl(&input);
    }
}
