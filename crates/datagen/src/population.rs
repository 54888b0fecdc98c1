//! Event-driven population simulation and certificate extraction.
//!
//! [`simulate`] runs a year-by-year demographic engine (marriages, births,
//! deaths, moves, migration) producing a clean [`Population`] with full
//! genealogy. [`extract_certificates`] then walks the event log and emits
//! the statutory certificates a registrar would have produced inside the
//! profile's registration window, passing every written value through the
//! transcription corruptor — exactly the relationship between the real
//! Scottish population and the noisy certificates SNAPS must link.

use snaps_rng::Rng;

use snaps_model::{CertificateKind, Dataset, Gender, RecordId, Role};
use snaps_strsim::geo::GeoPoint;

use crate::corrupt::Corruptor;
use crate::names::{NamePool, FEMALE_FIRST, MALE_FIRST, OCCUPATIONS, SURNAMES};
use crate::profile::DatasetProfile;
use crate::truth::GroundTruth;

/// A parish (registration district) in the simulated world.
#[derive(Debug, Clone)]
pub(crate) struct Parish {
    /// Parish name.
    pub name: String,
    /// Synthetic coordinate of the parish centre when geocoded.
    pub geo: Option<GeoPoint>,
}

/// A settlement (croft, farm, or street) — the address granularity real
/// certificates record. Table 1 shows Isle-of-Skye addresses averaging ~12
/// records per distinct value: settlement-level, not parish-level.
#[derive(Debug, Clone)]
pub(crate) struct Settlement {
    /// Settlement name (the certificate's address string).
    pub name: String,
    /// Index of the parish this settlement lies in.
    pub parish: usize,
    /// Synthetic coordinate when geocoded.
    pub geo: Option<GeoPoint>,
}

/// One simulated individual with their full (clean) life history.
#[derive(Debug, Clone)]
pub struct SimPerson {
    /// Index in [`Population::people`]; doubles as the ground-truth entity id.
    pub id: usize,
    /// Gender.
    pub gender: Gender,
    /// Year of birth.
    pub birth_year: i32,
    /// Year of death, once dead.
    pub death_year: Option<i32>,
    /// Given name.
    pub first_name: String,
    /// Surname at birth.
    pub birth_surname: String,
    /// Married surname (women take the husband's surname).
    pub married_surname: Option<String>,
    /// Father's id, when known.
    pub father: Option<usize>,
    /// Mother's id, when known.
    pub mother: Option<usize>,
    /// Current spouse's id.
    pub spouse: Option<usize>,
    /// Year of (first) marriage.
    pub marriage_year: Option<i32>,
    /// Current settlement index (into [`Population::settlements`]).
    pub address: usize,
    /// Occupation, when any.
    pub occupation: Option<String>,
    /// Children ids.
    pub children: Vec<usize>,
    /// Cause of death, once dead.
    pub cause_of_death: Option<String>,
}

impl SimPerson {
    /// The surname this person used in year `year` (women switch to the
    /// married surname from the marriage year onwards).
    #[must_use]
    pub(crate) fn surname_in_year(&self, year: i32) -> &str {
        match (&self.married_surname, self.marriage_year) {
            (Some(m), Some(y)) if year >= y && self.gender == Gender::Female => m,
            _ => &self.birth_surname,
        }
    }

    /// Whether the person is alive in `year`.
    #[must_use]
    pub(crate) fn alive_in(&self, year: i32) -> bool {
        self.birth_year <= year && self.death_year.is_none_or(|d| d >= year)
    }

    /// Age in `year`.
    #[must_use]
    pub(crate) fn age_in(&self, year: i32) -> i32 {
        year - self.birth_year
    }
}

/// A demographic event that may produce a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A child was born.
    Birth {
        /// Event year.
        year: i32,
        /// The newborn's id.
        child: usize,
    },
    /// A person died.
    Death {
        /// Event year.
        year: i32,
        /// The deceased's id.
        person: usize,
    },
    /// A couple married.
    Marriage {
        /// Event year.
        year: i32,
        /// Bride's id.
        bride: usize,
        /// Groom's id.
        groom: usize,
    },
}

impl Event {
    /// The event's year.
    #[must_use]
    pub fn year(&self) -> i32 {
        match *self {
            Event::Birth { year, .. }
            | Event::Death { year, .. }
            | Event::Marriage { year, .. } => year,
        }
    }
}

/// A fully simulated population: people, parishes, and the event log.
#[derive(Debug, Clone)]
pub struct Population {
    /// Every individual ever alive in the simulation.
    pub people: Vec<SimPerson>,
    /// Parishes (registration districts).
    pub(crate) parishes: Vec<Parish>,
    /// Settlements (certificate-level addresses).
    pub(crate) settlements: Vec<Settlement>,
    /// Chronological event log.
    pub(crate) events: Vec<Event>,
}

impl Population {
    /// Number of individuals ever simulated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.people.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.people.is_empty()
    }

    /// Individuals alive in `year`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn alive_in(&self, year: i32) -> usize {
        self.people.iter().filter(|p| p.alive_in(year)).count()
    }
}

/// Annual mortality probability by age — a coarse 19th-century life table
/// with the era's brutal infant mortality.
fn mortality(age: i32) -> f64 {
    match age {
        i32::MIN..=0 => 0.11,
        1..=4 => 0.022,
        5..=14 => 0.004,
        15..=44 => 0.008,
        45..=59 => 0.015,
        60..=69 => 0.040,
        70..=79 => 0.090,
        _ => 0.20,
    }
}

/// Common causes of death per age band (young <20, middle 20–40, old >40),
/// sampled with skew; the first entries are the frequent ones.
const CAUSES_YOUNG: &[&str] = &[
    "whooping cough",
    "measles",
    "scarlet fever",
    "infantile debility",
    "croup",
    "diarrhoea",
    "convulsions",
    "smallpox",
    "typhus fever",
    "diphtheria",
];
const CAUSES_MIDDLE: &[&str] = &[
    "phthisis",
    "typhus fever",
    "childbirth",
    "pneumonia",
    "rheumatic fever",
    "consumption",
    "enteric fever",
    "accidental drowning",
    "erysipelas",
    "apoplexy",
];
const CAUSES_OLD: &[&str] = &[
    "old age",
    "heart disease",
    "bronchitis",
    "paralysis",
    "dropsy",
    "cancer of the stomach",
    "asthma",
    "apoplexy",
    "debility",
    "influenza",
];

/// Rare cause templates; combined with a parish name they create the long
/// tail of unique strings the k-anonymisation experiment needs (paper §9).
const RARE_CAUSE_TEMPLATES: &[&str] = &[
    "drowned at",
    "killed by fall of rock at",
    "kicked by a horse near",
    "struck by lightning at",
    "crushed by cart wheel at",
    "lost at sea off",
    "burned in house fire at",
    "died of exposure on the moor at",
];

/// Base parish names; extras are minted for larger profiles.
const PARISH_NAMES: &[&str] = &[
    "portree",
    "duirinish",
    "snizort",
    "strath",
    "kilmuir",
    "sleat",
    "bracadale",
    "kilmore",
    "riccarton",
    "dreghorn",
    "galston",
    "fenwick",
    "kilmaurs",
    "loudoun",
    "stewarton",
    "dunlop",
    "irvine",
    "symington",
    "craigie",
    "mauchline",
];

/// Syllables for minting settlement names (crofts, farms, streets).
const SETTLEMENT_PREFIX: &[&str] = &[
    "acha", "bal", "dun", "inver", "kyle", "tor", "glen", "aird", "camus", "fis", "borve", "ose",
    "ullin", "carbost", "kens", "break", "tote", "peni",
];
const SETTLEMENT_SUFFIX: &[&str] = &[
    "more", "beg", "dale", "aig", "ish", "bost", "nish", "vaig", "gary", "side", "ton", "field",
    "bank", "brae",
];

struct Pools {
    female: NamePool,
    male: NamePool,
    surname: NamePool,
}

fn build_parishes(profile: &DatasetProfile, rng: &mut Rng) -> Vec<Parish> {
    let mut parishes = Vec::with_capacity(profile.parishes);
    for i in 0..profile.parishes {
        let name = if i < PARISH_NAMES.len() {
            PARISH_NAMES[i].to_string()
        } else {
            format!("{}side", PARISH_NAMES[i % PARISH_NAMES.len()])
        };
        // Scatter synthetic coordinates across a Skye-sized bounding box.
        let geo = profile.geocoded.then(|| {
            GeoPoint::new(57.2 + rng.gen_range(0.0..0.45), -6.6 + rng.gen_range(0.0..0.7))
        });
        parishes.push(Parish { name, geo });
    }
    parishes
}

fn build_settlements(
    profile: &DatasetProfile,
    parishes: &[Parish],
    rng: &mut Rng,
) -> Vec<Settlement> {
    let mut settlements = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (pi, parish) in parishes.iter().enumerate() {
        for _ in 0..profile.settlements_per_parish {
            // Mint a distinct name; retry on collision.
            let name = loop {
                let cand = format!(
                    "{}{}",
                    SETTLEMENT_PREFIX[rng.gen_range(0..SETTLEMENT_PREFIX.len())],
                    SETTLEMENT_SUFFIX[rng.gen_range(0..SETTLEMENT_SUFFIX.len())],
                );
                let cand =
                    if seen.contains(&cand) { format!("{cand} {}", parish.name) } else { cand };
                if seen.insert(cand.clone()) {
                    break cand;
                }
            };
            // Settlements jitter around their parish centre (±~3 km).
            let geo = parish.geo.map(|g| {
                GeoPoint::new(
                    (g.lat + rng.gen_range(-0.03..0.03)).clamp(-90.0, 90.0),
                    (g.lon + rng.gen_range(-0.05..0.05)).clamp(-180.0, 180.0),
                )
            });
            settlements.push(Settlement { name, parish: pi, geo });
        }
    }
    settlements
}

fn sample_cause(age: i32, parishes: &[Parish], rng: &mut Rng) -> String {
    // ~6% of deaths get a rare, location-specific cause string.
    if rng.gen_bool(0.06) {
        let t = RARE_CAUSE_TEMPLATES[rng.gen_range(0..RARE_CAUSE_TEMPLATES.len())];
        let p = &parishes[rng.gen_range(0..parishes.len())].name;
        return format!("{t} {p}");
    }
    let pool = if age < 20 {
        CAUSES_YOUNG
    } else if age < 40 {
        CAUSES_MIDDLE
    } else {
        CAUSES_OLD
    };
    // Skewed sampling: earlier entries more frequent.
    let r: f64 = rng.gen_f64().powi(2);
    let idx = (r * pool.len() as f64) as usize;
    pool[idx.min(pool.len() - 1)].to_string()
}

fn sample_first_name(
    gender: Gender,
    pools: &Pools,
    parent_name: Option<&str>,
    namesake_rate: f64,
    rng: &mut Rng,
) -> String {
    if let Some(p) = parent_name {
        if rng.gen_bool(namesake_rate) {
            return p.to_string();
        }
    }
    match gender {
        Gender::Female => pools.female.sample(rng).to_string(),
        _ => pools.male.sample(rng).to_string(),
    }
}

/// Run the demographic engine.
#[must_use]
pub fn simulate(profile: &DatasetProfile, rng: &mut Rng) -> Population {
    let pools = Pools {
        female: NamePool::new(FEMALE_FIRST, profile.female_first_pool, profile.name_skew),
        male: NamePool::new(MALE_FIRST, profile.male_first_pool, profile.name_skew),
        surname: NamePool::new(SURNAMES, profile.surname_pool, profile.name_skew),
    };
    let occupations = NamePool::new(OCCUPATIONS, OCCUPATIONS.len(), 0.9);
    let parishes = build_parishes(profile, rng);
    let settlements = build_settlements(profile, &parishes, rng);

    let mut people: Vec<SimPerson> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // Year of last childbirth per mother — enforces a 2-year birth interval.
    let mut last_birth: Vec<i32> = Vec::new();

    let new_person = |people: &mut Vec<SimPerson>,
                      last_birth: &mut Vec<i32>,
                      gender: Gender,
                      birth_year: i32,
                      first_name: String,
                      birth_surname: String,
                      father: Option<usize>,
                      mother: Option<usize>,
                      address: usize,
                      occupation: Option<String>| {
        let id = people.len();
        people.push(SimPerson {
            id,
            gender,
            birth_year,
            death_year: None,
            first_name,
            birth_surname,
            married_surname: None,
            father,
            mother,
            spouse: None,
            marriage_year: None,
            address,
            occupation,
            children: Vec::new(),
            cause_of_death: None,
        });
        last_birth.push(i32::MIN);
        id
    };

    // Founders: ages 0..=55 at sim_start, no recorded parents.
    for _ in 0..profile.founders {
        let gender = if rng.gen_bool(0.5) { Gender::Female } else { Gender::Male };
        let age = rng.gen_range(0..=55);
        let first = sample_first_name(gender, &pools, None, 0.0, rng);
        let surname = pools.surname.sample(rng).to_string();
        let address = rng.gen_range(0..settlements.len());
        let occupation =
            (gender == Gender::Male && age >= 14).then(|| occupations.sample(rng).to_string());
        new_person(
            &mut people,
            &mut last_birth,
            gender,
            profile.sim_start - age,
            first,
            surname,
            None,
            None,
            address,
            occupation,
        );
    }

    for year in profile.sim_start..=profile.sim_end {
        // --- Marriages ---------------------------------------------------
        let mut single_men: Vec<usize> = people
            .iter()
            .filter(|p| {
                p.gender == Gender::Male
                    && p.alive_in(year)
                    && p.spouse.is_none()
                    && (21..=48).contains(&p.age_in(year))
            })
            .map(|p| p.id)
            .collect();
        let single_women: Vec<usize> = people
            .iter()
            .filter(|p| {
                p.gender == Gender::Female
                    && p.alive_in(year)
                    && p.spouse.is_none()
                    && (17..=42).contains(&p.age_in(year))
            })
            .map(|p| p.id)
            .collect();
        rng.shuffle(&mut single_men);
        let mut men_iter = 0usize;
        for &w in &single_women {
            if men_iter >= single_men.len() {
                break;
            }
            if !rng.gen_bool(profile.marriage_rate) {
                continue;
            }
            let m = single_men[men_iter];
            men_iter += 1;
            // Avoid sibling marriages.
            if people[w].father.is_some() && people[w].father == people[m].father {
                continue;
            }
            let groom_surname = people[m].birth_surname.clone();
            let groom_address = people[m].address;
            {
                let wife = &mut people[w];
                wife.spouse = Some(m);
                wife.marriage_year = Some(year);
                wife.married_surname = Some(groom_surname);
                wife.address = groom_address;
            }
            {
                let husband = &mut people[m];
                husband.spouse = Some(w);
                husband.marriage_year = Some(year);
            }
            events.push(Event::Marriage { year, bride: w, groom: m });
        }

        // --- Births ------------------------------------------------------
        let mothers: Vec<usize> = people
            .iter()
            .filter(|p| {
                p.gender == Gender::Female
                    && p.alive_in(year)
                    && (16..=45).contains(&p.age_in(year))
                    && p.spouse.is_some_and(|s| people[s].alive_in(year))
            })
            .map(|p| p.id)
            .collect();
        for w in mothers {
            if year.saturating_sub(last_birth[w]) < 2 || !rng.gen_bool(profile.fertility) {
                continue;
            }
            let m = people[w].spouse.expect("mother is married");
            let gender = if rng.gen_bool(0.5) { Gender::Female } else { Gender::Male };
            let parent_name = match gender {
                Gender::Female => Some(people[w].first_name.clone()),
                _ => Some(people[m].first_name.clone()),
            };
            let first = sample_first_name(
                gender,
                &pools,
                parent_name.as_deref(),
                profile.namesake_rate,
                rng,
            );
            let surname = people[m].birth_surname.clone();
            let address = people[w].address;
            let child = new_person(
                &mut people,
                &mut last_birth,
                gender,
                year,
                first,
                surname,
                Some(m),
                Some(w),
                address,
                None,
            );
            people[w].children.push(child);
            people[m].children.push(child);
            last_birth[w] = year;
            events.push(Event::Birth { year, child });
        }

        // --- Deaths ------------------------------------------------------
        let alive: Vec<usize> = people.iter().filter(|p| p.alive_in(year)).map(|p| p.id).collect();
        for id in alive {
            let age = people[id].age_in(year);
            if rng.gen_bool(mortality(age).min(1.0)) {
                let cause = sample_cause(age, &parishes, rng);
                let p = &mut people[id];
                p.death_year = Some(year);
                p.cause_of_death = Some(cause);
                events.push(Event::Death { year, person: id });
            }
        }

        // --- Moves -------------------------------------------------------
        if settlements.len() > 1 {
            let movers: Vec<usize> = people
                .iter()
                .filter(|p| p.alive_in(year) && p.age_in(year) >= 18)
                .filter(|_| rng.gen_bool(profile.move_rate))
                .map(|p| p.id)
                .collect();
            for id in movers {
                let new_addr = rng.gen_range(0..settlements.len());
                people[id].address = new_addr;
                // Spouse and minor children move too.
                if let Some(s) = people[id].spouse {
                    if people[s].alive_in(year) {
                        people[s].address = new_addr;
                    }
                }
                let minors: Vec<usize> = people[id]
                    .children
                    .iter()
                    .copied()
                    .filter(|&c| people[c].alive_in(year) && people[c].age_in(year) < 15)
                    .collect();
                for c in minors {
                    people[c].address = new_addr;
                }
            }
        }

        // --- Immigration (open populations) -------------------------------
        if profile.immigration_rate > 0.0 {
            let alive_now = people.iter().filter(|p| p.alive_in(year)).count();
            let arrivals = (alive_now as f64 * profile.immigration_rate).round() as usize;
            for _ in 0..arrivals {
                let gender = if rng.gen_bool(0.5) { Gender::Female } else { Gender::Male };
                let age = rng.gen_range(16..=35);
                let first = sample_first_name(gender, &pools, None, 0.0, rng);
                let surname = pools.surname.sample(rng).to_string();
                let address = rng.gen_range(0..settlements.len());
                let occupation =
                    (gender == Gender::Male).then(|| occupations.sample(rng).to_string());
                new_person(
                    &mut people,
                    &mut last_birth,
                    gender,
                    year - age,
                    first,
                    surname,
                    None,
                    None,
                    address,
                    occupation,
                );
            }
        }
    }

    // Sons inherit an occupation when they reach adulthood (so death records
    // of men usually have one).
    let assignments: Vec<(usize, String)> = people
        .iter()
        .filter(|p| p.gender == Gender::Male && p.occupation.is_none())
        .filter(|p| {
            p.death_year.map_or(profile.sim_end - p.birth_year >= 14, |d| d - p.birth_year >= 14)
        })
        .map(|p| {
            let occ = p
                .father
                .and_then(|f| people[f].occupation.clone())
                .unwrap_or_else(|| OCCUPATIONS[p.id % OCCUPATIONS.len()].to_string());
            (p.id, occ)
        })
        .collect();
    for (id, occ) in assignments {
        people[id].occupation = Some(occ);
    }

    Population { people, parishes, settlements, events }
}

/// Walk the event log and emit corrupted certificates for events inside the
/// registration window, together with record-level ground truth.
#[must_use]
pub fn extract_certificates(
    profile: &DatasetProfile,
    pop: &Population,
    rng: &mut Rng,
) -> (Dataset, GroundTruth) {
    let mut ds = Dataset::new(profile.name.clone());
    let mut truth = GroundTruth::default();
    let corruptor = Corruptor::new(profile);

    // Stable chronological order (events were pushed year by year).
    for event in &pop.events {
        let year = event.year();
        if year < profile.reg_start || year > profile.reg_end {
            continue;
        }
        match *event {
            Event::Birth { year, child } => {
                let c = &pop.people[child];
                let cert = ds.push_certificate(CertificateKind::Birth, year);
                let addr = c.mother.map_or(c.address, |m| pop.people[m].address);
                let parish = pop.settlements[addr].parish;
                ds.certificates[cert.index()].parish = Some(pop.parishes[parish].name.clone());

                let bb = push_person(
                    &mut ds,
                    &mut truth,
                    cert,
                    Role::BirthBaby,
                    c,
                    year,
                    pop,
                    &corruptor,
                    rng,
                );
                let _ = bb;
                if let Some(m) = c.mother {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::BirthMother,
                        &pop.people[m],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(f) = c.father {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::BirthFather,
                        &pop.people[f],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
            }
            Event::Death { year, person } => {
                let d = &pop.people[person];
                let cert = ds.push_certificate(CertificateKind::Death, year);
                ds.certificates[cert.index()].parish =
                    Some(pop.parishes[pop.settlements[d.address].parish].name.clone());

                push_person(
                    &mut ds,
                    &mut truth,
                    cert,
                    Role::DeathDeceased,
                    d,
                    year,
                    pop,
                    &corruptor,
                    rng,
                );
                if let Some(m) = d.mother {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::DeathMother,
                        &pop.people[m],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(f) = d.father {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::DeathFather,
                        &pop.people[f],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(s) = d.spouse {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::DeathSpouse,
                        &pop.people[s],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
            }
            Event::Marriage { year, bride, groom } => {
                let b = &pop.people[bride];
                let g = &pop.people[groom];
                let cert = ds.push_certificate(CertificateKind::Marriage, year);
                ds.certificates[cert.index()].parish =
                    Some(pop.parishes[pop.settlements[g.address].parish].name.clone());

                push_person(
                    &mut ds,
                    &mut truth,
                    cert,
                    Role::MarriageBride,
                    b,
                    year,
                    pop,
                    &corruptor,
                    rng,
                );
                push_person(
                    &mut ds,
                    &mut truth,
                    cert,
                    Role::MarriageGroom,
                    g,
                    year,
                    pop,
                    &corruptor,
                    rng,
                );
                if let Some(m) = b.mother {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::MarriageBrideMother,
                        &pop.people[m],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(f) = b.father {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::MarriageBrideFather,
                        &pop.people[f],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(m) = g.mother {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::MarriageGroomMother,
                        &pop.people[m],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
                if let Some(f) = g.father {
                    push_person(
                        &mut ds,
                        &mut truth,
                        cert,
                        Role::MarriageGroomFather,
                        &pop.people[f],
                        year,
                        pop,
                        &corruptor,
                        rng,
                    );
                }
            }
        }
    }

    (ds, truth)
}

/// Emit one person record for `sim` in role `role`, corrupting every field.
#[expect(
    clippy::too_many_arguments,
    reason = "one call site; bundling the simulation context would add a type for it alone"
)]
fn push_person(
    ds: &mut Dataset,
    truth: &mut GroundTruth,
    cert: snaps_model::CertificateId,
    role: Role,
    sim: &SimPerson,
    year: i32,
    pop: &Population,
    corruptor: &Corruptor,
    rng: &mut Rng,
) -> RecordId {
    let id = ds.push_record(cert, role, sim.gender);
    truth.record_entity.push(snaps_model::EntityId::from_index(sim.id));
    debug_assert_eq!(truth.record_entity.len(), ds.len());

    // Brides appear under their maiden surname; everywhere else women use
    // the surname current in the event year.
    let surname = if role == Role::MarriageBride {
        sim.birth_surname.as_str()
    } else {
        sim.surname_in_year(year)
    };

    let settlement = &pop.settlements[sim.address];
    let fields = corruptor.corrupt_person(
        role,
        &sim.first_name,
        surname,
        Some(settlement.name.as_str()),
        sim.occupation.as_deref(),
        rng,
    );

    let age = corruptor.corrupt_age(sim.age_in(year), role, rng);

    let rec = ds.record_mut(id);
    rec.first_name = fields.first_name;
    rec.surname = fields.surname;
    rec.address = fields.address;
    rec.occupation = fields.occupation;
    rec.age = age;
    rec.geo = settlement.geo.map(Into::into);
    if role == Role::DeathDeceased {
        rec.cause_of_death = sim.cause_of_death.clone();
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pop() -> (DatasetProfile, Population) {
        let profile = DatasetProfile::ios().scaled(0.05);
        let mut rng = Rng::seed_from_u64(11);
        let pop = simulate(&profile, &mut rng);
        (profile, pop)
    }

    #[test]
    fn population_survives_and_reproduces() {
        let (profile, pop) = small_pop();
        assert!(pop.len() > profile.founders, "births occurred");
        assert!(pop.alive_in(profile.sim_end) > 0, "population did not die out");
        assert!(pop.events.iter().any(|e| matches!(e, Event::Marriage { .. })));
        assert!(pop.events.iter().any(|e| matches!(e, Event::Birth { .. })));
        assert!(pop.events.iter().any(|e| matches!(e, Event::Death { .. })));
    }

    #[test]
    fn genealogy_is_consistent() {
        let (_, pop) = small_pop();
        for p in &pop.people {
            if let (Some(f), Some(m)) = (p.father, p.mother) {
                assert_eq!(pop.people[f].gender, Gender::Male);
                assert_eq!(pop.people[m].gender, Gender::Female);
                assert!(pop.people[f].children.contains(&p.id));
                assert!(pop.people[m].children.contains(&p.id));
                // Parents are plausibly older.
                assert!(pop.people[m].birth_year + 14 <= p.birth_year);
                // Child carries the father's birth surname.
                assert_eq!(p.birth_surname, pop.people[f].birth_surname);
            }
            if let Some(d) = p.death_year {
                assert!(d >= p.birth_year);
                assert!(p.cause_of_death.is_some());
            }
        }
    }

    #[test]
    fn wives_change_surname() {
        let (_, pop) = small_pop();
        let changed = pop
            .people
            .iter()
            .filter(|p| p.gender == Gender::Female && p.married_surname.is_some())
            .filter(|p| p.married_surname.as_deref() != Some(p.birth_surname.as_str()))
            .count();
        assert!(changed > 0, "at least some wives took a different surname");
        for p in &pop.people {
            if let (Some(m), Some(y)) = (&p.married_surname, p.marriage_year) {
                assert_eq!(p.surname_in_year(y - 1), p.birth_surname);
                if p.gender == Gender::Female {
                    assert_eq!(p.surname_in_year(y), m.as_str());
                }
            }
        }
    }

    #[test]
    fn events_chronological() {
        let (_, pop) = small_pop();
        for w in pop.events.windows(2) {
            assert!(w[0].year() <= w[1].year());
        }
    }

    #[test]
    fn certificates_only_in_window() {
        let (profile, pop) = small_pop();
        let mut rng = Rng::seed_from_u64(5);
        let (ds, truth) = extract_certificates(&profile, &pop, &mut rng);
        assert_eq!(truth.record_entity.len(), ds.len());
        for c in &ds.certificates {
            assert!(c.year >= profile.reg_start && c.year <= profile.reg_end);
        }
        ds.validate().unwrap();
    }

    #[test]
    fn death_records_have_causes() {
        let (profile, pop) = small_pop();
        let mut rng = Rng::seed_from_u64(5);
        let (ds, _) = extract_certificates(&profile, &pop, &mut rng);
        let deceased: Vec<_> = ds.records_with_role(Role::DeathDeceased).collect();
        assert!(!deceased.is_empty());
        assert!(deceased.iter().all(|r| r.cause_of_death.is_some()));
    }

    #[test]
    fn brides_use_maiden_surname() {
        let (profile, pop) = small_pop();
        let mut rng = Rng::seed_from_u64(5);
        let (ds, truth) = extract_certificates(&profile, &pop, &mut rng);
        // Find any bride record with an uncorrupted surname and compare.
        let mut checked = 0;
        for r in ds.records_with_role(Role::MarriageBride) {
            let sim = &pop.people[truth.record_entity[r.id.index()].index()];
            if r.surname.as_deref() == Some(sim.birth_surname.as_str()) {
                checked += 1;
            }
        }
        assert!(checked > 0, "most brides keep a recognisable maiden name");
    }

    #[test]
    fn geocoded_profile_attaches_coordinates() {
        let (profile, pop) = small_pop();
        assert!(profile.geocoded);
        let mut rng = Rng::seed_from_u64(5);
        let (ds, _) = extract_certificates(&profile, &pop, &mut rng);
        assert!(ds.records.iter().any(|r| r.geo.is_some()));
    }

    #[test]
    fn ungeocoded_profile_has_no_coordinates() {
        let profile = DatasetProfile::kil().scaled(0.03);
        let mut rng = Rng::seed_from_u64(5);
        let pop = simulate(&profile, &mut rng);
        let (ds, _) = extract_certificates(&profile, &pop, &mut rng);
        assert!(ds.records.iter().all(|r| r.geo.is_none()));
    }

    #[test]
    fn growth_is_bounded() {
        // Guard against demographic explosion or collapse: over the full
        // 120-year IOS run the population should stay within sane bounds.
        let profile = DatasetProfile::ios().scaled(0.1);
        let mut rng = Rng::seed_from_u64(17);
        let pop = simulate(&profile, &mut rng);
        let end = pop.alive_in(profile.sim_end);
        let start = profile.founders;
        assert!(end > start / 5, "population collapsed: {start} -> {end}");
        assert!(end < start * 12, "population exploded: {start} -> {end}");
    }
}
