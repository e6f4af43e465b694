//! The four data sets of Section 6.1, as deterministic synthetic generators.
//!
//! The paper uses one real URL corpus, one real email corpus, the Yago2
//! triple ids and uniform 63-bit random integers. The real corpora are not
//! redistributable, so this module synthesizes stand-ins that preserve what
//! the index structures actually react to — key length, shared-prefix
//! structure and byte-level sparsity (see DESIGN.md §5):
//!
//! * **url** — `http(s)://{host}/{path…}` with Zipf-popular hosts, shared
//!   directory trees and dataset-average ≈ 55 bytes;
//! * **email** — `{first}.{last}{digits}@{domain}` with Zipf-popular names
//!   and domains, average ≈ 23 bytes;
//! * **yago** — 8-byte compound triple keys with the paper's exact bit
//!   layout (bits 38–63 subject, 27–37 predicate, 0–26 object) and skewed
//!   subject/predicate reuse;
//! * **integer** — uniform 63-bit random integers.
//!
//! String keys carry the 0x00 terminator (prefix-free); integer/yago keys
//! are fixed-width big-endian. Generators are deterministic per seed and
//! return the keys in **random (shuffled) order**, matching the paper's
//! "load phase inserts … keys in random order".

use crate::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Which of the paper's four data sets to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ≈55-byte URLs.
    Url,
    /// ≈23-byte email addresses.
    Email,
    /// 8-byte yago triple keys.
    Yago,
    /// 8-byte uniform 63-bit integers.
    Integer,
}

impl DatasetKind {
    /// All four, in the paper's column order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Url,
        DatasetKind::Email,
        DatasetKind::Yago,
        DatasetKind::Integer,
    ];

    /// The label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Url => "url",
            DatasetKind::Email => "email",
            DatasetKind::Yago => "yago",
            DatasetKind::Integer => "integer",
        }
    }
}

impl std::str::FromStr for DatasetKind {
    type Err = String;

    /// Parse a figure label (`"url"`, `"email"`, `"yago"`, `"integer"`,
    /// case-insensitive) — the CLI convention of the server and the
    /// network YCSB driver.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DatasetKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown data set {s:?} (expected url/email/yago/integer)"))
    }
}

/// A generated key set: distinct, prefix-free, in shuffled insert order.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The data-set kind.
    pub kind: DatasetKind,
    /// Encoded keys in load (insert) order.
    pub keys: Vec<Vec<u8>>,
}

impl Dataset {
    /// Generate `n` distinct keys of the given kind, deterministically for
    /// `seed`.
    pub fn generate(kind: DatasetKind, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DA7_A5E7 ^ kind as u64);
        let mut keys = match kind {
            DatasetKind::Url => gen_urls(n, &mut rng),
            DatasetKind::Email => gen_emails(n, &mut rng),
            DatasetKind::Yago => gen_yago(n, &mut rng),
            DatasetKind::Integer => gen_integers(n, &mut rng),
        };
        keys.shuffle(&mut rng);
        Dataset { kind, keys }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Average encoded key length in bytes.
    pub fn avg_key_len(&self) -> f64 {
        if self.keys.is_empty() {
            return 0.0;
        }
        self.keys.iter().map(|k| k.len()).sum::<usize>() as f64 / self.keys.len() as f64
    }

    /// Total raw key bytes (Figure 9's dashed "raw key" line).
    pub fn raw_key_bytes(&self) -> usize {
        self.keys.iter().map(|k| k.len()).sum()
    }

    /// Key indices in ascending key-byte order — the input order sorted
    /// bulk loading wants. The sort itself is the data-preparation step a
    /// real load pipeline does once up front, so harnesses keep it outside
    /// the timed region.
    pub fn sorted_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        hot_keys::sort_by_key(&mut order, |i| self.keys[i].as_slice());
        order
    }
}

fn gen_integers(n: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut seen = HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let v: u64 = rng.gen::<u64>() >> 1; // 63-bit
        if seen.insert(v) {
            keys.push(hot_keys::encode_u64(v).to_vec());
        }
    }
    keys
}

fn gen_yago(n: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    // Yago2 triples: few predicates, Zipf-popular subjects, many objects —
    // a dense-ish region in the subject bits, sparse in the object bits.
    let subjects = ((n / 12).max(64) as u64).min(1 << 26);
    let predicates = 40u64;
    let subject_dist = Zipfian::with_default_theta(subjects);
    let predicate_dist = Zipfian::new(predicates, 0.6);

    let mut seen = HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let s = subject_dist.next_scrambled(rng) as u32;
        let p = predicate_dist.next_rank(rng) as u32;
        let o = rng.gen_range(0..1u32 << 27);
        let key = hot_keys::encode_yago(s, p, o).expect("fields fit");
        if seen.insert(key) {
            keys.push(key.to_vec());
        }
    }
    keys
}

const FIRST_NAMES: &[&str] = &[
    "james",
    "mary",
    "robert",
    "patricia",
    "john",
    "jennifer",
    "michael",
    "linda",
    "david",
    "elizabeth",
    "william",
    "barbara",
    "richard",
    "susan",
    "joseph",
    "jessica",
    "thomas",
    "karen",
    "chris",
    "nancy",
    "daniel",
    "lisa",
    "matthew",
    "betty",
    "anthony",
    "sandra",
    "mark",
    "ashley",
    "donald",
    "kim",
    "steven",
    "donna",
    "paul",
    "emily",
    "andrew",
    "michelle",
    "joshua",
    "carol",
    "ken",
    "amanda",
    "kevin",
    "melissa",
    "brian",
    "deborah",
    "george",
    "stephanie",
    "timothy",
    "rebecca",
    "ronald",
    "sharon",
];

const LAST_NAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
    "green",
    "adams",
    "nelson",
    "baker",
    "hall",
    "rivera",
    "campbell",
    "mitchell",
    "carter",
    "roberts",
];

const EMAIL_DOMAINS: &[&str] = &[
    "gmail.com",
    "yahoo.com",
    "hotmail.com",
    "aol.com",
    "outlook.com",
    "icloud.com",
    "gmx.at",
    "web.de",
    "mail.ru",
    "proton.me",
    "uibk.ac.at",
    "tum.de",
    "example.org",
    "fastmail.fm",
    "zoho.com",
    "yandex.ru",
];

fn gen_emails(n: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    // "23 byte long email addresses or emails solely consisting of numbers"
    let domain_dist = Zipfian::with_default_theta(EMAIL_DOMAINS.len() as u64);
    let first_dist = Zipfian::new(FIRST_NAMES.len() as u64, 0.8);
    let last_dist = Zipfian::new(LAST_NAMES.len() as u64, 0.8);
    let mut seen = HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let addr = if rng.gen_bool(0.06) {
            // All-numeric local parts occur in the paper's corpus.
            format!(
                "{}@{}",
                rng.gen_range(100_000u64..99_999_999),
                EMAIL_DOMAINS[domain_dist.next_rank(rng) as usize]
            )
        } else {
            let first = FIRST_NAMES[first_dist.next_rank(rng) as usize];
            let last = LAST_NAMES[last_dist.next_rank(rng) as usize];
            let sep = ["", ".", "_"][rng.gen_range(0..3usize)];
            let num = if rng.gen_bool(0.55) {
                format!("{}", rng.gen_range(1..9999))
            } else {
                String::new()
            };
            format!(
                "{first}{sep}{last}{num}@{}",
                EMAIL_DOMAINS[domain_dist.next_rank(rng) as usize]
            )
        };
        if seen.insert(addr.clone()) {
            keys.push(hot_keys::str_key(addr.as_bytes()).expect("valid email key"));
        }
    }
    keys
}

const URL_HOSTS: &[&str] = &[
    "en.wikipedia.org",
    "www.youtube.com",
    "www.facebook.com",
    "www.google.com",
    "twitter.com",
    "www.amazon.com",
    "www.reddit.com",
    "www.instagram.com",
    "github.com",
    "stackoverflow.com",
    "www.linkedin.com",
    "www.netflix.com",
    "www.nytimes.com",
    "www.bbc.co.uk",
    "www.cnn.com",
    "news.ycombinator.com",
    "www.tum.de",
    "www.uibk.ac.at",
    "dl.acm.org",
    "arxiv.org",
    "www.spiegel.de",
    "www.derstandard.at",
    "medium.com",
    "www.quora.com",
    "www.ebay.com",
    "www.apple.com",
    "docs.rs",
    "crates.io",
    "www.rust-lang.org",
    "lwn.net",
    "www.kernel.org",
    "blog.acolyer.org",
];

const URL_SECTIONS: &[&str] = &[
    "articles",
    "wiki",
    "users",
    "products",
    "questions",
    "watch",
    "posts",
    "docs",
    "news",
    "category",
    "threads",
    "projects",
    "papers",
    "blog",
    "search",
    "item",
    "topic",
    "en",
    "research",
    "archive",
];

fn gen_urls(n: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    // "55 byte long URLs originating from a real-world data set": long,
    // sparsely distributed strings with heavy shared prefixes per host.
    let host_dist = Zipfian::with_default_theta(URL_HOSTS.len() as u64);
    let section_dist = Zipfian::new(URL_SECTIONS.len() as u64, 0.7);
    let mut seen = HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let scheme = if rng.gen_bool(0.8) { "https" } else { "http" };
        let host = URL_HOSTS[host_dist.next_rank(rng) as usize];
        let section = URL_SECTIONS[section_dist.next_rank(rng) as usize];
        let sub = URL_SECTIONS[section_dist.next_rank(rng) as usize];
        let url = match rng.gen_range(0..4) {
            0 => format!(
                "{scheme}://{host}/{section}/{:07}-{}.html",
                rng.gen_range(0..4_000_000),
                slugword(rng)
            ),
            1 => format!(
                "{scheme}://{host}/{section}/{sub}/{}-{}",
                slugword(rng),
                rng.gen_range(0..2_000_000)
            ),
            2 => format!(
                "{scheme}://{host}/{section}?id={}&ref={}",
                rng.gen_range(0..8_000_000),
                slugword(rng)
            ),
            _ => format!(
                "{scheme}://{host}/{section}/{sub}/{}/{}.php",
                rng.gen_range(1990..2026),
                slugword(rng)
            ),
        };
        if seen.insert(url.clone()) {
            keys.push(hot_keys::str_key(url.as_bytes()).expect("valid url key"));
        }
    }
    keys
}

const SLUG_WORDS: &[&str] = &[
    "height",
    "optimized",
    "trie",
    "index",
    "memory",
    "database",
    "systems",
    "adaptive",
    "radix",
    "latch",
    "free",
    "lookup",
    "random",
    "access",
    "modern",
    "hardware",
    "storage",
    "engine",
    "paper",
    "review",
    "update",
    "winter",
    "summer",
    "spring",
    "autumn",
    "alpha",
    "beta",
    "gamma",
    "delta",
];

fn slugword(rng: &mut StdRng) -> String {
    format!(
        "{}-{}",
        SLUG_WORDS[rng.gen_range(0..SLUG_WORDS.len())],
        SLUG_WORDS[rng.gen_range(0..SLUG_WORDS.len())]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate_distinct_keys() {
        for kind in DatasetKind::ALL {
            let ds = Dataset::generate(kind, 5_000, 1);
            assert_eq!(ds.len(), 5_000, "{kind:?}");
            let set: HashSet<&Vec<u8>> = ds.keys.iter().collect();
            assert_eq!(set.len(), 5_000, "{kind:?} keys distinct");
        }
    }

    #[test]
    fn keys_are_prefix_free() {
        for kind in DatasetKind::ALL {
            let ds = Dataset::generate(kind, 2_000, 2);
            let mut sorted = ds.keys.clone();
            sorted.sort();
            for pair in sorted.windows(2) {
                assert!(
                    !pair[1].starts_with(&pair[0]),
                    "{kind:?}: {:?} prefixes {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn fixed_width_kinds_are_eight_bytes() {
        for kind in [DatasetKind::Yago, DatasetKind::Integer] {
            let ds = Dataset::generate(kind, 1_000, 3);
            assert!(ds.keys.iter().all(|k| k.len() == 8), "{kind:?}");
        }
    }

    #[test]
    fn average_lengths_match_paper() {
        let url = Dataset::generate(DatasetKind::Url, 20_000, 4);
        let email = Dataset::generate(DatasetKind::Email, 20_000, 4);
        // Paper: url avg 55 bytes, email avg 23 bytes (plus our terminator).
        let u = url.avg_key_len();
        let e = email.avg_key_len();
        assert!((45.0..68.0).contains(&u), "url avg {u}");
        assert!((18.0..30.0).contains(&e), "email avg {e}");
    }

    #[test]
    fn yago_bit_layout() {
        let ds = Dataset::generate(DatasetKind::Yago, 1_000, 5);
        for k in &ds.keys {
            let v = u64::from_be_bytes(k.as_slice().try_into().unwrap());
            let subject = v >> 38;
            let predicate = (v >> 27) & ((1 << 11) - 1);
            assert!(subject < 1 << 26);
            assert!(predicate < 40, "predicate pool is small");
        }
    }

    #[test]
    fn deterministic_per_seed_and_kind() {
        let a = Dataset::generate(DatasetKind::Email, 500, 9);
        let b = Dataset::generate(DatasetKind::Email, 500, 9);
        assert_eq!(a.keys, b.keys);
        let c = Dataset::generate(DatasetKind::Email, 500, 10);
        assert_ne!(a.keys, c.keys);
    }

    #[test]
    fn load_order_is_shuffled() {
        let ds = Dataset::generate(DatasetKind::Integer, 5_000, 6);
        let mut sorted = ds.keys.clone();
        sorted.sort();
        assert_ne!(ds.keys, sorted, "load order must be random");
    }
}
