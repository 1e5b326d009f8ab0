// Deliberately broken fixture: a gemm-style microkernel whose unsafe sites
// carry no justification comment, so the audit must flag both of them even
// inside an allowlisted crates/simd lane file (and anywhere in crates/gemm,
// which is unsafe-free, as allowlist violations).
pub(crate) fn tile(kc: usize, a: &[f32], c: &mut [f32]) {
    assert!(a.len() >= kc);
    unsafe { tile_impl(kc, a.as_ptr(), c.as_mut_ptr()) }
}

unsafe fn tile_impl(kc: usize, a: *const f32, c: *mut f32) {
    for kk in 0..kc {
        *c.add(kk) += *a.add(kk);
    }
}
