//! Synthetic vital-records population generator.
//!
//! The paper evaluates on restricted data (Isle of Skye, Kilmarnock, the
//! Digitising Scotland database, and BHIC). This crate substitutes them with
//! a seeded, deterministic population simulator whose *generating mechanisms*
//! are exactly the ER challenges the paper enumerates (§2):
//!
//! * **changing QID values** — women take their husband's surname at
//!   marriage, families move between addresses;
//! * **different roles/relationships over time** — the same individual
//!   appears as `Bb`, then `Mb`/`Mg`, then `Bm`/`Bf`, then `Dd`;
//! * **ambiguity** — first names and surnames are drawn from Zipf-skewed
//!   pools, and children are often named after a parent or grandparent;
//! * **partial match groups** — siblings share surname, address, and parents;
//! * **transcription noise** — typos, spelling variants, and missing values
//!   at per-field rates calibrated to the paper's Table 1.
//!
//! The generator emits a [`snaps_model::Dataset`] (what ER sees), a
//! [`truth::GroundTruth`] mapping every record to its generating entity, and
//! the clean [`population::Population`] itself.
//!
//! ```
//! use snaps_datagen::{generate, DatasetProfile};
//! let data = generate(&DatasetProfile::ios().scaled(0.05), 42);
//! assert!(!data.dataset.is_empty());
//! assert_eq!(data.truth.record_entity.len(), data.dataset.len());
//! ```

pub mod corrupt;
pub mod names;
pub mod population;
pub mod profile;
pub mod truth;

pub use population::{Population, SimPerson};
pub use profile::DatasetProfile;
pub use truth::GroundTruth;

use snaps_model::Dataset;
use snaps_rng::Rng;

/// Everything the generator produces for one dataset.
#[derive(Debug, Clone)]
pub struct GeneratedData {
    /// The corrupted certificate records — the input to entity resolution.
    pub dataset: Dataset,
    /// Record-to-entity ground truth for evaluation.
    pub truth: GroundTruth,
    /// The clean simulated population the records were extracted from.
    pub population: Population,
}

/// Simulate a population under `profile` and extract its certificates.
///
/// Fully deterministic for a given `(profile, seed)` pair: two calls produce
/// byte-identical datasets, which keeps every experiment reproducible.
#[must_use]
pub fn generate(profile: &DatasetProfile, seed: u64) -> GeneratedData {
    let mut rng = Rng::seed_from_u64(seed);
    let population = population::simulate(profile, &mut rng);
    let (dataset, truth) = population::extract_certificates(profile, &population, &mut rng);
    GeneratedData { dataset, truth, population }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let p = DatasetProfile::ios().scaled(0.02);
        let a = generate(&p, 7);
        let b = generate(&p, 7);
        assert_eq!(a.dataset.len(), b.dataset.len());
        assert_eq!(a.truth.record_entity, b.truth.record_entity);
        assert_eq!(a.dataset.records[0].first_name, b.dataset.records[0].first_name);
    }

    #[test]
    fn different_seeds_differ() {
        let p = DatasetProfile::ios().scaled(0.02);
        let a = generate(&p, 1);
        let b = generate(&p, 2);
        // Population trajectories diverge; sizes almost surely differ.
        assert!(
            a.dataset.len() != b.dataset.len() || a.truth.record_entity != b.truth.record_entity
        );
    }

    #[test]
    fn dataset_is_valid() {
        let data = generate(&DatasetProfile::ios().scaled(0.05), 3);
        data.dataset.validate().unwrap();
        assert_eq!(data.truth.record_entity.len(), data.dataset.len());
    }
}
