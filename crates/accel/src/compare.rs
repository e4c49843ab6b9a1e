//! Page comparison in byte order.
//!
//! `ksm` decides merge candidates and their ordering in the unstable/stable
//! trees by comparing two pages in byte order up to the first difference
//! (§VI-B). The comparison result doubles as the tree ordering key. The
//! scan itself runs eight bytes at a time; the result is the byte scan's.

use core::cmp::Ordering;

/// Result of comparing two pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCompare {
    /// Pages are byte-identical (merge candidates).
    Identical,
    /// Pages differ first at `index`; `ordering` is the byte-wise order
    /// (the ksm tree-walk direction).
    DiffersAt {
        /// Offset of the first differing byte.
        index: usize,
        /// `Less` if `a[index] < b[index]`.
        ordering: Ordering,
    },
}

impl PageCompare {
    /// True if the pages matched completely.
    pub fn is_identical(self) -> bool {
        matches!(self, PageCompare::Identical)
    }

    /// The tree-walk ordering: `Equal` for identical pages.
    pub fn ordering(self) -> Ordering {
        match self {
            PageCompare::Identical => Ordering::Equal,
            PageCompare::DiffersAt { ordering, .. } => ordering,
        }
    }

    /// The number of bytes the comparator actually examined for pages of
    /// `len` bytes — the early-exit behaviour that makes the average
    /// comparison much cheaper than a full-page scan.
    pub fn bytes_examined(self, len: usize) -> usize {
        match self {
            PageCompare::Identical => len,
            PageCompare::DiffersAt { index, .. } => index + 1,
        }
    }
}

/// Compares two equal-length pages in byte order, reporting the first
/// differing byte.
///
/// # Panics
///
/// Panics if the pages have different lengths (ksm always compares whole
/// 4 KiB pages).
///
/// # Examples
///
/// ```
/// use accel::compare::{compare_pages, PageCompare};
///
/// let a = vec![0u8; 4096];
/// let mut b = a.clone();
/// assert!(compare_pages(&a, &b).is_identical());
/// b[100] = 1;
/// assert_eq!(
///     compare_pages(&a, &b),
///     PageCompare::DiffersAt { index: 100, ordering: std::cmp::Ordering::Less },
/// );
/// ```
pub fn compare_pages(a: &[u8], b: &[u8]) -> PageCompare {
    assert_eq!(a.len(), b.len(), "page comparison requires equal lengths");
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let same_words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| word(x) == word(y))
        .count();
    let start = same_words * 8;
    match a[start..].iter().zip(&b[start..]).position(|(x, y)| x != y) {
        None => PageCompare::Identical,
        Some(k) => {
            let index = start + k;
            PageCompare::DiffersAt {
                index,
                ordering: a[index].cmp(&b[index]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages() {
        let a = vec![3u8; 4096];
        let r = compare_pages(&a, &a.clone());
        assert!(r.is_identical());
        assert_eq!(r.ordering(), Ordering::Equal);
        assert_eq!(r.bytes_examined(4096), 4096);
    }

    #[test]
    fn first_difference_located() {
        let a = vec![0u8; 128];
        let mut b = a.clone();
        b[0] = 9;
        assert_eq!(
            compare_pages(&a, &b),
            PageCompare::DiffersAt {
                index: 0,
                ordering: Ordering::Less
            }
        );
        let mut c = a.clone();
        c[127] = 1;
        let r = compare_pages(&c, &a);
        assert_eq!(
            r,
            PageCompare::DiffersAt {
                index: 127,
                ordering: Ordering::Greater
            }
        );
        assert_eq!(r.bytes_examined(128), 128);
    }

    #[test]
    fn ordering_is_antisymmetric() {
        let a = vec![1u8; 64];
        let b = vec![2u8; 64];
        assert_eq!(compare_pages(&a, &b).ordering(), Ordering::Less);
        assert_eq!(compare_pages(&b, &a).ordering(), Ordering::Greater);
    }

    #[test]
    fn early_exit_examines_prefix_only() {
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[10] = 1;
        assert_eq!(compare_pages(&a, &b).bytes_examined(4096), 11);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_lengths_panic() {
        compare_pages(&[0u8; 4], &[0u8; 5]);
    }
}
