//! Controls for the runtime-dispatched SIMD kernel backend (re-exports of
//! the vendored `simdkern` crate).
//!
//! The integer kernels in [`crate::int`] and the f32 matrix product behind
//! [`crate::linalg::matmul`] route their inner loops through a [`Backend`]
//! selected once per process: the best instruction set the host CPU
//! supports (AVX2, then SSE4.1, then scalar on x86-64; NEON on AArch64),
//! overridable with the `BNN_SIMD` environment variable (`auto`, `scalar`,
//! `avx2`, `sse4.1`, `neon` — unrecognised or unavailable values fall back
//! to `scalar`). Every backend is **bitwise identical** on every input. The
//! integer kernels are exact arithmetic. The f32 kernel is one loop body on
//! every backend, which fixes each output element's sequence: start at
//! `+0.0`, add `a[i][p] * b[p][j]` for ascending `p` as a separate multiply
//! and add (never an FMA), and skip every `p` where `a[i][p] == 0.0`. The
//! workspace parity suite (`tests/simd_parity.rs`) sweeps backends ×
//! formats × shapes × thread counts to enforce it, and trains a network
//! under each backend to check the weights come out bit-identical.
//!
//! [`set_backend_override`] forces a backend programmatically — it exists
//! for that parity suite and for benchmarks; production code should leave
//! selection to the environment. The override is process-global, so
//! concurrent tests must serialise around it.

pub use simdkern::{Backend, SIMD_ENV_VAR};

/// The backend the kernels currently dispatch to (override, else
/// `BNN_SIMD`, else auto-detection; resolved once per process).
pub fn active_backend() -> Backend {
    simdkern::active()
}

/// The backends this host can execute, scalar first.
pub fn available_backends() -> Vec<Backend> {
    simdkern::available()
}

/// Forces (`Some`) or releases (`None`) the active backend, overriding the
/// environment. Intended for parity tests and benchmarks; unavailable
/// backends are clamped to scalar at dispatch time.
pub fn set_backend_override(backend: Option<Backend>) {
    simdkern::set_override(backend)
}
