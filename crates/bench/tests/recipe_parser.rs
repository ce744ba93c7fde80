//! Hostile-input tests for the recipe parser, seeded with the vendored
//! proptest at its fixed case budget: arbitrary text never panics and
//! every reject is a line-numbered `RecipeError`, generated valid recipes
//! survive `parse(render(r)) == r`, and the keys of the removed
//! closed-loop load (`depth`, `duration-ms`, `deadline-us`) are unknown.

use metaai_bench::scenario::{Recipe, SCENARIOS};
use metaai_datasets::{DatasetId, Scale};
use metaai_rf::environment::EnvironmentKind;
use metaai_rf::interference::InterferenceRegion;
use metaai_serve::OverflowPolicy;
use proptest::collection::vec;
use proptest::prelude::*;

/// Pieces hostile text is assembled from: real keys and values, the
/// syntax characters, removed keys, and values at or past their limits.
const FRAGMENTS: &[&str] = &[
    "name",
    "scenario",
    "seed",
    "tenant",
    "dataset",
    "speeds-mps",
    "snr-db",
    "epochs",
    "adapt-threshold",
    "layers",
    "policy",
    "interferer",
    "depth",
    "duration-ms",
    "deadline-us",
    "=",
    " = ",
    " ",
    ",",
    "#",
    "\n",
    "\r\n",
    "\t",
    "serve-load",
    "offline-accuracy",
    "mnist",
    "shed",
    "R4",
    "none",
    "quick",
    "0",
    "1",
    "-1",
    "0.5",
    "1e999",
    "NaN",
    "inf",
    "18446744073709551616",
    "é",
    "\u{0}",
    "\u{feff}",
];

/// Checks the parser's contract on `text`: a parse either succeeds and
/// round-trips, or fails with a line inside the text (0 only for the
/// whole-file "missing required key" errors).
fn check_contract(text: &str) {
    match Recipe::parse(text) {
        Ok(recipe) => {
            let reparsed = Recipe::parse(&recipe.render()).expect("rendered recipe reparses");
            assert_eq!(recipe, reparsed, "accepted text round-trips");
        }
        Err(e) => {
            assert!(
                e.line <= text.lines().count(),
                "line {} past the text",
                e.line
            );
            if e.line == 0 {
                assert!(
                    e.message.starts_with("missing required key"),
                    "{}",
                    e.message
                );
            } else {
                assert!(
                    e.to_string().starts_with(&format!("line {}:", e.line)),
                    "{e}"
                );
            }
        }
    }
}

/// A valid recipe drawn from 32 integers: every field takes a value its
/// key accepts, floats from raw bits where any finite value is allowed.
fn recipe_from(v: &[u64]) -> Recipe {
    const NAME_CHARS: &[u8] = b"abcXYZ019_-";
    let pick = |i: usize, n: usize| (v[i] % n as u64) as usize;
    let finite = |i: usize, fallback: f64| {
        let x = f64::from_bits(v[i]);
        if x.is_finite() {
            x
        } else {
            fallback
        }
    };
    let positive = |i: usize| {
        let x = finite(i, 1.0).abs();
        if x > 0.0 {
            x
        } else {
            1.0
        }
    };
    let name = (0..1 + pick(0, 12))
        .map(|k| NAME_CHARS[((v[0] >> (4 * k)) % NAME_CHARS.len() as u64) as usize] as char)
        .collect();
    let first = pick(1, SCENARIOS.len());
    let scenarios = (0..1 + pick(2, SCENARIOS.len()))
        .map(|k| SCENARIOS[(first + k) % SCENARIOS.len()].to_string())
        .collect();
    let datasets = DatasetId::all();
    let tenants = (0..pick(4, 4))
        .map(|k| datasets[((v[4] >> (8 * k)) % 6) as usize])
        .collect();
    let regions = InterferenceRegion::all();
    Recipe {
        name,
        scenarios,
        dataset: datasets[pick(3, 6)],
        scale: [Scale::Quick, Scale::Default, Scale::Paper][pick(5, 3)],
        epochs: v[6].max(1) as usize,
        seed: v[7],
        environment: EnvironmentKind::all()[pick(8, 3)],
        snr_db: finite(9, 20.0),
        tenants,
        connections: v[10].max(1) as usize,
        workers: v[11].max(1) as usize,
        max_batch: v[12].max(1) as usize,
        queue_capacity: v[13].max(1) as usize,
        policy: [OverflowPolicy::Shed, OverflowPolicy::Block][pick(14, 2)],
        chaos_connections: v[15].max(1) as usize,
        chaos_faults: v[16].max(1),
        worker_panics: v[17],
        samples: v[18].max(1) as usize,
        speeds_mps: (0..1 + pick(19, 3)).map(|k| positive(20 + k)).collect(),
        interferer: (!v[23].is_multiple_of(5)).then(|| regions[pick(23, 4)]),
        drift_mps: positive(24),
        adapt_rounds: v[25].max(1) as usize,
        adapt_threshold: (v[26] >> 11) as f64 / (1u64 << 53) as f64,
        adapt_residual: positive(27),
        adapt_hysteresis: (v[28] as u32).max(1),
        adapt_cooldown: v[29],
        layers: v[30].max(2) as usize,
        atom_budget: v[31].max(2) as usize,
    }
}

proptest! {
    #[test]
    fn fragment_soup_never_panics_and_rejects_with_a_line(
        pieces in vec((0usize..FRAGMENTS.len(), any::<u8>(), any::<bool>()), 0..48),
    ) {
        // Each piece is a fragment or, now and then, one arbitrary char.
        let text: String = pieces
            .iter()
            .map(|&(i, byte, raw)| {
                if raw && byte % 4 == 0 {
                    char::from(byte).to_string()
                } else {
                    FRAGMENTS[i].to_string()
                }
            })
            .collect();
        check_contract(&text);
        // The same soup behind a valid head, so later lines are reached.
        check_contract(&format!("name = t\nscenario = serve-load\n{text}"));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        check_contract(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn generated_recipes_round_trip_exactly(v in vec(any::<u64>(), 32)) {
        let recipe = recipe_from(&v);
        let rendered = recipe.render();
        let reparsed = Recipe::parse(&rendered)
            .unwrap_or_else(|e| panic!("{e} in\n{rendered}"));
        prop_assert_eq!(&recipe, &reparsed);
        prop_assert_eq!(rendered, reparsed.render());
    }
}

#[test]
fn keys_of_the_removed_closed_loop_load_are_unknown() {
    for line in ["depth = 64", "duration-ms = 300", "deadline-us = 0"] {
        let text = format!("name = t\nscenario = serve-load\n{line}\n");
        let err = Recipe::parse(&text).expect_err(line);
        let key = line.split(' ').next().expect("key");
        assert_eq!(err.line, 3, "{line}");
        assert_eq!(err.message, format!("unknown key `{key}`"), "{line}");
    }
}
