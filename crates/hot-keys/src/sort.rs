//! Ordering items by their key bytes: a parallel, word-cached sample
//! sort (DESIGN.md §11, "Loading from unsorted input").
//!
//! Sorted bulk loading wants `(key, tid)` pairs in key order, and the keys
//! of a secondary index live in the tuple store, not next to the TIDs. A
//! comparison sort over TIDs therefore pays two dependent cache misses and
//! a `memcmp` over the shared prefix for every one of its `n log n`
//! comparisons. This sort touches key bytes far less often:
//!
//! 1. **Buckets.** Splitters drawn from a small sorted sample cut the
//!    input into one key range per bucket; the buckets are sorted
//!    independently, each on its own scoped thread (the last on the
//!    caller's).
//! 2. **Word cache.** A bucket is sorted as `(word, item)` pairs, `word`
//!    being the 8 key bytes at the current depth as a big-endian integer,
//!    so the sort proper compares plain integers and never leaves the pair
//!    array. Only runs of equal words go back to the key bytes, to reload
//!    the word 8 bytes deeper.
//! 3. **Short runs and short keys** finish with a plain `slice::cmp` sort.
//!    A word is zero-padded when its key ends inside it, so two *unequal*
//!    words always order their keys correctly, but equal words say nothing
//!    once a key of the run has ended: such a run is never split by words.
//!
//! The result is the total order `(key bytes, item)`, whatever the bucket
//! count — equal keys are ordered by the item itself.

use std::cmp::Ordering;

/// Runs this short are finished by comparing key bytes directly.
const CUTOFF: usize = 24;
/// Sample entries drawn per bucket to place the splitters.
const OVERSAMPLE: usize = 512;

/// Sort `items` by `(key_of(item), item)`, one bucket per available core.
pub fn sort_by_key<'k, T, F>(items: &mut [T], key_of: F)
where
    T: Copy + Ord + Send,
    F: Fn(T) -> &'k [u8] + Sync,
{
    let buckets = std::thread::available_parallelism().map_or(1, |n| n.get());
    sort_by_key_in(items, key_of, buckets);
}

/// [`sort_by_key`] with an explicit bucket count; the order produced does
/// not depend on it (which is what the differential tests call this for).
pub fn sort_by_key_in<'k, T, F>(items: &mut [T], key_of: F, buckets: usize)
where
    T: Copy + Ord + Send,
    F: Fn(T) -> &'k [u8] + Sync,
{
    let buckets = buckets.clamp(1, items.len().max(1));
    let full = |a: T, b: T| key_of(a).cmp(key_of(b)).then(a.cmp(&b));
    let step = (items.len() / (buckets * OVERSAMPLE)).max(1);
    let mut sample: Vec<T> = match buckets {
        1 => Vec::new(),
        _ => items.iter().step_by(step).copied().collect(),
    };
    sample.sort_unstable_by(|&a, &b| full(a, b));
    let splitters: Vec<T> = (1..buckets)
        .map(|b| sample[b * sample.len() / buckets])
        .collect();

    // One pass over the keys: an item goes to the bucket numbered by the
    // splitters at or below it, with the first word of the key just read.
    let room = items.len() / buckets;
    let mut parts: Vec<Vec<(u64, T)>> = (0..buckets)
        .map(|_| Vec::with_capacity(room + room / 8))
        .collect();
    for &t in items.iter() {
        let bucket = splitters.partition_point(|&s| full(s, t) != Ordering::Greater);
        parts[bucket].push((word_at(key_of(t), 0), t));
    }
    std::thread::scope(|scope| {
        let (mine, others) = parts.split_last_mut().expect("at least one bucket");
        for part in others {
            let key_of = &key_of;
            scope.spawn(move || sort_run(part, 0, key_of));
        }
        sort_run(mine, 0, &key_of);
    });
    // Buckets are ascending key ranges: end to end they are the result.
    for (slot, (_, t)) in items.iter_mut().zip(parts.into_iter().flatten()) {
        *slot = t;
    }
}

/// The 8 key bytes from `depth` on as a big-endian integer, zero-padded
/// past the key's end.
#[inline]
fn word_at(key: &[u8], depth: usize) -> u64 {
    let tail = key.get(depth..).unwrap_or(&[]);
    match tail.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
    }
}

/// Sort one run whose keys all agree on (and are at least as long as)
/// their first `depth` bytes, and whose words were loaded at `depth`.
fn sort_run<'k, T, F>(run: &mut [(u64, T)], depth: usize, key_of: &F)
where
    T: Copy + Ord,
    F: Fn(T) -> &'k [u8],
{
    if run.len() <= CUTOFF {
        return sort_by_bytes(run, depth, key_of);
    }
    run.sort_unstable_by_key(|pair| pair.0);
    let mut lo = 0;
    while lo < run.len() {
        let word = run[lo].0;
        let len = run[lo..].iter().take_while(|pair| pair.0 == word).count();
        let tied = &mut run[lo..lo + len];
        lo += len;
        if tied.len() <= CUTOFF {
            sort_by_bytes(tied, depth, key_of);
            continue;
        }
        // Reload one word deeper; a key that ended inside this word makes
        // its zero padding indistinguishable from real 0x00 bytes.
        let mut ended = false;
        for pair in tied.iter_mut() {
            let key = key_of(pair.1);
            ended |= key.len() < depth + 8;
            pair.0 = word_at(key, depth + 8);
        }
        if ended {
            sort_by_bytes(tied, depth, key_of);
        } else {
            sort_run(tied, depth + 8, key_of);
        }
    }
}

fn sort_by_bytes<'k, T, F>(run: &mut [(u64, T)], depth: usize, key_of: &F)
where
    T: Copy + Ord,
    F: Fn(T) -> &'k [u8],
{
    run.sort_unstable_by(|a, b| {
        key_of(a.1)[depth..]
            .cmp(&key_of(b.1)[depth..])
            .then(a.1.cmp(&b.1))
    });
}
