package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Internal collective tags live in the negative tag space so they never
// collide with application tags (which must be non-negative).
const (
	tagBarrierIn = -10 - iota
	tagBarrierOut
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
	tagAllgather
	tagShrinkReport // ULFM's survivor exchanges (ulfm.go)
	tagShrinkResult
	tagAgreeReport
	tagAgreeResult
)

// Collectives are built from the same point-to-point primitives the
// application uses, so they inherit the pooled-event discipline for free:
// internal sends and receives emit by value and only envelope payloads
// cross the engine boundary. Their requests never escape to the
// application, so they are recycled at completion, and every hop's message
// is released (or its payload detached) once consumed — a long reduction
// chain runs on a handful of pooled objects.
//
// Every algorithm has one body, the CollectiveState step machine in
// prog_coll.go. The methods below are its closure-mode form: arm the
// process's scratch CollectiveState, run CollectiveStep, Block on the park
// value until it reports done.

// finishReq recycles a completed request that never escaped to the
// application and hands its received message (nil for sends) to the
// caller, who must Release it (or detach its Data) once consumed. On error
// the message, if any, is released here and nil is returned.
func (e *Env) finishReq(req *Request, err error) (*Message, error) {
	var msg *Message
	if err != nil {
		req.releaseMsg(e.dp)
	} else {
		msg = req.TakeMsg()
	}
	e.dp.putReq(req)
	return msg, err
}

// detachData takes the payload out of a message that is about to escape to
// the caller and releases the header: the buffer leaves the pool's custody,
// the header is recycled.
func detachData(msg *Message) []byte {
	data := msg.Data
	msg.Data = nil
	msg.Release()
	return data
}

// drive runs the collective armed in the closure scratch to completion on
// the calling closure VP and returns its results (all nil on error). It
// leaves the scratch disarmed, so between collectives the process pins
// neither the results nor, after a failed exchange, its requests.
func (c *Comm) drive(cs *CollectiveState) (data []byte, acc []float64, out [][]byte, err error) {
	for {
		done, park, err := c.CollectiveStep(cs)
		if !done {
			c.env.Block(park)
			continue
		}
		if err == nil {
			data, acc, out = cs.data, cs.acc, cs.out
		}
		cs.arm(collNone)
		return data, acc, out, err
	}
}

// Barrier blocks until every member reaches it.
func (c *Comm) Barrier() error {
	cs := &c.env.closure().coll
	cs.BeginBarrier()
	_, _, _, err := c.drive(cs)
	return err
}

// Bcast broadcasts root's data to every member; every rank returns the
// broadcast payload. Non-root callers pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	cs := &c.env.closure().coll
	cs.BeginBcast(root, data)
	out, _, _, err := c.drive(cs)
	return out, err
}

// ReduceOp folds src into dst elementwise; both slices have equal length.
type ReduceOp func(dst, src []float64)

// Predefined reduction operations.
var (
	// OpSum adds elementwise.
	OpSum ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// OpMax takes the elementwise maximum.
	OpMax ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	}
	// OpMin takes the elementwise minimum.
	OpMin ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	}
)

// Reduce folds every member's contribution at root with op. The root
// returns the reduction, others return nil.
func (c *Comm) Reduce(root int, contrib []float64, op ReduceOp) ([]float64, error) {
	cs := &c.env.closure().coll
	cs.BeginReduce(root, contrib, op)
	_, acc, _, err := c.drive(cs)
	return acc, err
}

// Allreduce folds every member's contribution and distributes the result
// to every member.
func (c *Comm) Allreduce(contrib []float64, op ReduceOp) ([]float64, error) {
	cs := &c.env.closure().coll
	cs.BeginAllreduce(contrib, op)
	_, acc, _, err := c.drive(cs)
	return acc, err
}

// Gather collects every member's data at root in rank order. The root
// returns one slice per rank, others return nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	cs := &c.env.closure().coll
	cs.BeginGather(root, data)
	_, _, out, err := c.drive(cs)
	return out, err
}

// Scatter distributes parts[i] from root to rank i; every rank returns its
// part. Non-root callers pass nil.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	cs := &c.env.closure().coll
	cs.BeginScatter(root, parts)
	out, _, _, err := c.drive(cs)
	return out, err
}

// Allgather collects every member's data at every member, in rank order.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	cs := &c.env.closure().coll
	cs.BeginAllgather(data)
	_, _, out, err := c.drive(cs)
	return out, err
}

// Alltoall sends parts[i] to rank i and returns one received slice per
// rank.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	cs := &c.env.closure().coll
	cs.BeginAlltoall(parts)
	_, _, out, err := c.drive(cs)
	return out, err
}

// encodeF64sPool encodes floats little-endian into a pooled buffer; the
// caller owns it (transfer it with an owned send or release it with
// putBuf).
func encodeF64sPool(dp *dpPool, vals []float64) []byte {
	buf := dp.getBuf(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// decodeF64sInto decodes len(dst) floats into dst, the in-place variant of
// decodeF64s for the collectives' scratch slice.
func decodeF64sInto(dst []float64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("mpi: reduce payload is %d bytes, want %d floats", len(buf), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// scratchF64 returns the process's reusable n-float scratch slice.
func (e *Env) scratchF64(n int) []float64 {
	c := e.coldRec()
	if cap(c.f64s) < n {
		c.f64s = make([]float64, n)
	}
	return c.f64s[:n]
}

// decodeF64s decodes exactly n floats. The n bound is checked before the
// 8*n multiply: for huge n the product wraps, which would let a corrupt
// count slip past the length comparison into a giant allocation.
func decodeF64s(buf []byte, n int) ([]float64, error) {
	if n < 0 || n > len(buf)/8 || len(buf) != 8*n {
		return nil, fmt.Errorf("mpi: reduce payload is %d bytes, want %d floats", len(buf), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// framePool length-prefixes a slice of byte slices into one pooled
// buffer; the caller owns it. The appends stay within the buffer's
// capacity, so the pooled backing array survives for a later putBuf.
func framePool(dp *dpPool, parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	buf := dp.getBuf(total)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// unframe reverses framePool.
func unframe(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("mpi: framed buffer too short")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Each part carries at least its own 4-byte length prefix, so a count
	// beyond len(buf)/4 cannot be satisfied; reject it before sizing the
	// output (a hostile count field would otherwise drive a multi-gigabyte
	// allocation).
	if n < 0 || n > len(buf)/4 {
		return nil, fmt.Errorf("mpi: framed buffer claims %d parts in %d bytes", n, len(buf))
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("mpi: framed buffer truncated at part %d", i)
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, fmt.Errorf("mpi: framed part %d truncated", i)
		}
		out[i] = append([]byte(nil), buf[:l]...)
		buf = buf[l:]
	}
	return out, nil
}
