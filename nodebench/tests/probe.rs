//! The host-speed probe is the benchmark's own Keccak-f[1600].

#[test]
fn probe_runs_the_real_keccak_permutation() {
    let mut ours = [0u64; 25];
    let mut reference = [0u64; 25];
    for (i, (a, b)) in ours.iter_mut().zip(reference.iter_mut()).enumerate() {
        *a = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        *b = *a;
    }
    for _ in 0..3 {
        nodebench::probe::keccak_f1600(&mut ours);
        sereth_crypto::keccak::keccak_f1600(&mut reference);
        assert_eq!(ours, reference);
    }
}
