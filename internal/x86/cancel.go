package x86

// cancelStride is the number of code bytes a cancellation-aware sweep
// decodes between context checks. The stride keeps the check off the
// per-instruction hot path (one ctx.Err() per 64 KiB of text costs
// nothing measurable) while still bounding how much work a canceled
// request can keep doing: a few tens of microseconds of decode.
const cancelStride = 64 << 10
