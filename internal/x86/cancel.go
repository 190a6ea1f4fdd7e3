package x86

import "context"

// cancelStride is the number of code bytes a cancellation-aware sweep
// decodes between context checks. The stride keeps the check off the
// per-instruction hot path (one ctx.Err() per 64 KiB of text costs
// nothing measurable) while still bounding how much work a canceled
// request can keep doing: a few tens of microseconds of decode.
const cancelStride = 64 << 10

// BuildIndexParallelCtx is BuildIndexParallel with cooperative
// cancellation: every shard checks ctx at cancelStride boundaries of its
// chunk, and the seam stitcher does the same, so an aborted request
// stops burning all cores within a stride. On cancellation it returns
// (nil, ctx.Err()).
func BuildIndexParallelCtx(ctx context.Context, code []byte, base uint64, mode Mode, workers int) (*Index, error) {
	return buildIndex(ctx, code, base, mode, workers)
}
