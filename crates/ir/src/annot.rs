//! The full-CSSPGO marker profile generation (`csspgo-core`) hands the
//! optimizer (`csspgo-opt`).

/// Marks an annotation as full CSSPGO (paper §III.B, Algorithm 2). It
/// carries nothing: the profile is the plan. The pre-inliner's decisions
/// travel inside the profile as the nested call-site profiles it kept, and
/// the sample loader honours every one that has a body.
#[derive(Clone, Copy, Debug, Default)]
pub struct InlinePlan;
