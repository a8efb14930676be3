//! Binary Merkle commitments over ordered lists of 32-byte leaves.
//!
//! Ethereum commits to transactions, receipts, and state with
//! Merkle-Patricia tries. For replay validation the only property the
//! substrate needs is a deterministic, collision-resistant commitment, so we
//! substitute a simple binary Merkle tree (see `DESIGN.md` §7): leaves are
//! hashed pairwise with Keccak-256, odd nodes are carried up unchanged, and
//! the empty list commits to `keccak256("sereth/empty-merkle")`.

use std::sync::LazyLock;

use crate::hash::H256;
use crate::keccak::{keccak256, keccak256_concat};

static EMPTY_ROOT: LazyLock<H256> = LazyLock::new(|| H256::new(keccak256(b"sereth/empty-merkle")));

/// Commitment to the empty list (hashed once per process).
pub fn empty_root() -> H256 {
    *EMPTY_ROOT
}

/// The parent of one aligned pair of sibling nodes: the hash of both, or
/// the node itself when it has no right sibling (odd nodes carry up
/// unchanged).
///
/// # Panics
///
/// If `pair` is empty or longer than two.
pub fn parent_node(pair: &[H256]) -> H256 {
    match pair {
        [left, right] => H256::new(keccak256_concat(left.as_bytes(), right.as_bytes())),
        [odd] => *odd,
        _ => panic!("a node pair has one or two members, got {}", pair.len()),
    }
}

/// Computes the binary Merkle root of `leaves` in order.
///
/// Allocates the first level above the leaves once and reduces it in
/// place from there.
///
/// # Examples
///
/// ```
/// use sereth_crypto::hash::H256;
/// use sereth_crypto::merkle::merkle_root;
///
/// let a = H256::keccak(b"a");
/// let b = H256::keccak(b"b");
/// assert_ne!(merkle_root(&[a, b]), merkle_root(&[b, a]), "order matters");
/// ```
pub fn merkle_root(leaves: &[H256]) -> H256 {
    if leaves.len() <= 1 {
        return leaves.first().copied().unwrap_or_else(empty_root);
    }
    let mut level: Vec<H256> = leaves.chunks(2).map(parent_node).collect();
    while level.len() > 1 {
        let above = level.len().div_ceil(2);
        for i in 0..above {
            // Reads 2i and 2i+1, never below i: nothing unread is overwritten.
            level[i] = parent_node(&level[2 * i..(2 * i + 2).min(level.len())]);
        }
        level.truncate(above);
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_commits_to_constant() {
        assert_eq!(merkle_root(&[]), empty_root());
        assert!(!empty_root().is_zero());
    }

    #[test]
    fn single_leaf_is_its_own_root() {
        let leaf = H256::keccak(b"leaf");
        assert_eq!(merkle_root(&[leaf]), leaf);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let leaves: Vec<H256> = (0..5).map(H256::from_low_u64).collect();
        let base = merkle_root(&leaves);
        for i in 0..leaves.len() {
            let mut mutated = leaves.clone();
            mutated[i] = H256::from_low_u64(999);
            assert_ne!(merkle_root(&mutated), base, "leaf {i}");
        }
    }

    #[test]
    fn root_changes_with_length() {
        let leaves: Vec<H256> = (0..6).map(H256::from_low_u64).collect();
        assert_ne!(merkle_root(&leaves[..5]), merkle_root(&leaves[..6]));
    }

    #[test]
    fn odd_counts_are_handled() {
        for n in 1..12 {
            let leaves: Vec<H256> = (0..n).map(H256::from_low_u64).collect();
            // Must not panic, must be deterministic.
            assert_eq!(merkle_root(&leaves), merkle_root(&leaves));
        }
    }

    /// The level-by-level reduction over fresh vectors that `merkle_root`
    /// replaced with an in-place one; the two must agree byte for byte.
    fn merkle_root_by_levels(leaves: &[H256]) -> H256 {
        let mut level = leaves.to_vec();
        if level.is_empty() {
            return H256::new(keccak256(b"sereth/empty-merkle"));
        }
        while level.len() > 1 {
            level = level.chunks(2).map(parent_node).collect();
        }
        level[0]
    }

    #[test]
    fn in_place_reduction_matches_the_level_by_level_tree() {
        for n in 0u64..70 {
            let leaves: Vec<H256> = (0..n).map(|i| H256::keccak(&i.to_le_bytes())).collect();
            assert_eq!(merkle_root(&leaves), merkle_root_by_levels(&leaves), "{n} leaves");
        }
    }
}
