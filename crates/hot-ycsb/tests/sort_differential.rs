//! Differential test for `hot_keys::sort_by_key` (DESIGN.md §11, "Loading
//! from unsorted input"): whatever the bucket count, the word-cached
//! sample sort must produce exactly the order of a plain comparison sort
//! by `(key bytes, item)` — on the four data sets, through the tuple arena
//! the server sorts over, and on key sets built to break a word cache
//! (long shared prefixes, keys ending inside a word, trailing 0x00 bytes,
//! duplicates).

use hot_keys::sort_by_key_in;
use hot_keys::{sort_by_key, ArenaKeySource};
use hot_ycsb::{Dataset, DatasetKind};

const BUCKETS: [usize; 3] = [1, 2, 7];

/// Sort indices into `keys` every way and compare with the reference.
fn assert_matches_reference(what: &str, keys: &[Vec<u8>]) {
    let mut want: Vec<usize> = (0..keys.len()).collect();
    want.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    for buckets in BUCKETS {
        // Reversed input, so that "already in order" cannot pass by luck.
        let mut got: Vec<usize> = (0..keys.len()).rev().collect();
        sort_by_key_in(&mut got, |i| keys[i].as_slice(), buckets);
        assert!(
            got == want,
            "{what}: {buckets} bucket(s) disagree with the comparison sort"
        );
    }
    let mut got: Vec<usize> = (0..keys.len()).collect();
    sort_by_key(&mut got, |i| keys[i].as_slice());
    assert!(
        got == want,
        "{what}: default bucket count disagrees with the comparison sort"
    );
}

#[test]
fn data_sets_sort_like_a_comparison_sort() {
    for kind in DatasetKind::ALL {
        let dataset = Dataset::generate(kind, 200_000, 7);
        for n in [1, 2, 3, 200_000] {
            assert_matches_reference(&format!("{} n={n}", kind.label()), &dataset.keys[..n]);
        }

        // The server's form: TIDs ordered by their arena-resident bytes.
        let mut arena = ArenaKeySource::new();
        let tids: Vec<u64> = dataset.keys.iter().map(|k| arena.push(k)).collect();
        let mut want = tids.clone();
        want.sort_unstable_by(|&a, &b| arena.key(a).cmp(arena.key(b)));
        let mut got = tids;
        sort_by_key(&mut got, |tid| arena.key(tid));
        assert!(got == want, "{}: arena TID order", kind.label());
        assert_eq!(dataset.sorted_order().len(), dataset.len());
    }
}

/// `count` keys: `prefix`, then a 3-byte counter scrambled so neighbours
/// in input order are far apart in key order.
fn with_prefix(prefix: &[u8], count: u32) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut key = prefix.to_vec();
            key.extend_from_slice(&i.wrapping_mul(0x9E37_79B1).to_be_bytes()[..3]);
            key
        })
        .collect()
}

#[test]
fn adversarial_key_sets_sort_like_a_comparison_sort() {
    // Shared leading bytes beyond one, two and eight cached words.
    for shared in [9usize, 17, 65] {
        let prefix: Vec<u8> = (0..shared).map(|i| b'a' + (i % 7) as u8).collect();
        assert_matches_reference(
            &format!("{shared} shared bytes"),
            &with_prefix(&prefix, 3_000),
        );
    }

    // Proper prefixes: every key of a long run is a prefix of the next.
    let chain: Vec<Vec<u8>> = (0..200usize).map(|len| vec![b'x'; len]).collect();
    assert_matches_reference("prefix chain", &chain);

    // Keys differing only in trailing 0x00 bytes, across word boundaries:
    // zero padding of the cached word must never decide their order.
    let mut zeros = Vec::new();
    for stem in [
        &b""[..],
        b"k",
        b"seven77",
        b"eight888",
        b"nine99999",
        b"sixteen-sixteen!",
    ] {
        for pad in 0..40usize {
            let mut key = stem.to_vec();
            key.resize(stem.len() + pad, 0);
            zeros.push(key);
        }
    }
    assert_matches_reference("trailing zeros", &zeros);

    // Duplicates (ties fall back to the item order), the empty key, and
    // both mixed into a set large enough to be split into word runs.
    let mut mixed = with_prefix(b"https://host.example/", 500);
    mixed.extend(with_prefix(b"https://host.example/", 500));
    mixed.extend(std::iter::repeat_n(Vec::new(), 30));
    mixed.extend(zeros.iter().cloned());
    mixed.extend(chain.iter().cloned());
    assert_matches_reference("duplicates + empty + prefixes", &mixed);

    assert_matches_reference("all equal", &vec![b"same-key-everywhere".to_vec(); 5_000]);
    assert_matches_reference("all empty", &vec![Vec::new(); 100]);
    assert_matches_reference("no keys", &[]);
}
