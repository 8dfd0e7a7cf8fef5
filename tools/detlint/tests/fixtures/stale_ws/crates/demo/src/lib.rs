// The one file of the stale-manifest mini workspace: defines `step` only.
pub fn step(x: u32) -> u32 {
    x + 1
}
