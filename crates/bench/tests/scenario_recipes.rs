//! Recipe-format contract tests: parse errors carry line numbers, every
//! committed quick recipe round-trips through the canonical renderer,
//! defaults are deterministic, and running the same recipe twice yields
//! byte-identical result JSON once the `timing` subtree is stripped.

use metaai_bench::scenario::{
    self, load_recipe_dir, result_json, run_recipe, strip_timing, Recipe, DEFAULT_SEED,
};
use std::path::PathBuf;

fn quick_recipes_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../recipes/quick")
}

#[test]
fn unknown_keys_are_rejected_with_line_numbers() {
    let text = "name = t\nscenario = serve-load\n\n# fine so far\nchaos_faults = 3\n";
    let err = Recipe::parse(text).expect_err("underscore spelling is not a key");
    assert_eq!(err.line, 5);
    assert!(err.message.contains("chaos_faults"), "{}", err.message);
    assert!(err.to_string().starts_with("line 5:"), "{err}");
}

#[test]
fn missing_seed_defaults_deterministically() {
    let text = "name = t\nscenario = serve-load\n";
    let a = Recipe::parse(text).expect("parse");
    let b = Recipe::parse(text).expect("parse again");
    assert_eq!(a.seed, DEFAULT_SEED);
    assert_eq!(a, b, "parsing is a pure function of the text");
}

#[test]
fn committed_quick_recipes_round_trip_and_cover_the_registry() {
    let recipes = load_recipe_dir(&quick_recipes_dir()).expect("load recipes/quick");
    assert!(
        recipes.len() >= 4,
        "CI needs at least 4 quick recipes, found {}",
        recipes.len()
    );
    let mut covered: Vec<&str> = Vec::new();
    for recipe in &recipes {
        // Canonical render reparses to the identical recipe: the text
        // format loses nothing the runner consumes.
        let reparsed = Recipe::parse(&recipe.render()).expect("reparse rendered recipe");
        assert_eq!(*recipe, reparsed, "{} round-trips", recipe.name);
        for s in &recipe.scenarios {
            if !covered.contains(&s.as_str()) {
                covered.push(s);
            }
        }
    }
    for s in scenario::SCENARIOS {
        assert!(
            covered.contains(s),
            "no committed quick recipe exercises {s:?}"
        );
    }
}

#[test]
fn recipe_names_are_unique_across_the_quick_set() {
    let recipes = load_recipe_dir(&quick_recipes_dir()).expect("load recipes/quick");
    let mut names: Vec<&str> = recipes.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "merged.json keys by recipe name");
}

/// The determinism contract end to end: two runs of one recipe produce
/// byte-identical rendered JSON after [`strip_timing`]. The recipe is
/// deliberately tiny (1 epoch, 8 samples) — the point is the fixed
/// subtree, not the numbers in it.
#[test]
fn same_recipe_twice_is_byte_identical_modulo_timing() {
    let text = "name = pin\nscenario = offline-accuracy, engine-throughput, serve-load\n\
                dataset = afhq\nepochs = 1\nsamples = 8\nseed = 5\n";
    let recipe = Recipe::parse(text).expect("parse");
    let render_run = || {
        run_recipe(&recipe)
            .into_iter()
            .map(|(name, result)| {
                let outcome = result.unwrap_or_else(|e| panic!("{name}: {e}"));
                strip_timing(&result_json(&recipe, &name, &outcome)).render()
            })
            .collect::<Vec<String>>()
    };
    let first = render_run();
    let second = render_run();
    assert_eq!(first, second, "fixed subtrees must not drift across runs");
    // And the stripped documents really lost their wall-clock fields.
    assert!(!first.concat().contains("elapsed_seconds"));
}
