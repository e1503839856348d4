package fl

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ClientStore holds a fleet: clients exist as a compact id space [0,n) and
// materialize on demand through a builder that constructs client i as a
// pure function of i (experiments.ClientBuilder). At most budget clients
// stay resident in an LRU; evicting one spills its mutable state — flat
// parameters, batch-norm buffers, RNG position, optimizer moments — as one
// record into the store's segment file, and a later Get reads the record
// back, bit-identically, into a freshly built client. An eager fleet
// (NewSimulation) is the store with no budget and every client resident
// from construction; its builder hands back the client it was given, which
// only a resume ever asks for again.
//
// Memory is residents plus a 24-byte index entry (id → offset, length) per
// spilled client; the spilled state itself is on disk. The segment is one
// os.CreateTemp file under os.TempDir(), created by the first eviction or
// by a resume (RestoreTouched writes the checkpoint's records into a fresh
// one, on an eager fleet too; a run with budget ≤ 0 that never resumes has
// none) and unlinked at once, so it has no name to clean up and its blocks
// go back to the filesystem when the process ends, however it ends. A
// rehydrated client's slot goes on a free list keyed by record length and
// the next spill of that length takes it: the file only grows while more
// records of some length are spilled at once than ever before, so its size
// is bounded by the spilled high-water mark per record length (one
// architecture has two lengths, with and without optimizer moments), not by
// the number of commits. On a tmpfs TMPDIR those blocks are memory again —
// point TMPDIR at a disk for fleets whose touched set does not fit in RAM.
//
// A resident entry is clean while its client's state is still what the
// builder or its record made it: evaluation reaches clients through a clean
// accessor (EvalAccuracy reads parameters, buffers and nothing else), and
// every other Get marks the entry dirty. A clean entry is evicted by
// forgetting it, with no write: the builder rebuilds it, or its record —
// which a clean rehydrated client keeps, and which is released only when the
// client turns dirty — restores it. Either way the client that comes back
// is bit-identical. An evicted client's model goes whole to the models free
// list (SplitModel.Recycle), where the next build of its config takes it and
// initializes it again in place, and its optimizer moments and upload vector
// go to the tensor pool.
type ClientStore struct {
	mu       sync.Mutex
	n        int
	build    func(int) *Client
	budget   int // max resident clients; <= 0 means unbounded
	resident map[int]*list.Element
	lru      *list.List // of *resident; front = most recently used
	// loading holds the ids some Get is materializing outside mu; a second
	// Get of such an id waits on loaded for the first to publish its client.
	loading map[int]bool
	loaded  sync.Cond
	seg     segment
	sb      spillBuf    // record scratch of the paths that hold mu throughout
	bufs    []*spillBuf // idle scratch of rehydrating Gets: one per Get that ever overlapped
}

// resident is a materialized client and its clean bit.
type resident struct {
	c *Client
	// clean: nothing but evaluation has reached c since it was built or
	// rehydrated. A clean client is indexed in the segment iff it was
	// rehydrated; a dirty one never is.
	clean bool
}

// lists returns the parameter and buffer lists of c's model — the model's
// own — or nil ones for a client without a model.
func (c *Client) lists() (params []*nn.Param, bufs [][]float64) {
	if c.Model == nil {
		return nil, nil
	}
	return c.Model.Params(), c.Model.Buffers()
}

// NewClientStore builds a store over n virtual clients.
func NewClientStore(n int, build func(int) *Client, budget int) *ClientStore {
	st := &ClientStore{
		n:        n,
		build:    build,
		budget:   budget,
		resident: make(map[int]*list.Element),
		lru:      list.New(),
		loading:  make(map[int]bool),
	}
	st.loaded.L = &st.mu
	return st
}

// Len returns the virtual fleet size.
func (st *ClientStore) Len() int { return st.n }

// Resident returns how many clients are currently materialized.
func (st *ClientStore) Resident() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// Get returns client id, building it (and restoring any spilled state) if
// it is not resident, and marks it dirty: the caller may change its state.
// Safe to call concurrently — distinct ids build and rehydrate in parallel,
// the pattern of every parallel client loop, and a same-id race waits for
// the first caller's client. The result stays resident at least until the
// next EvictToBudget.
func (st *ClientStore) Get(id int) *Client { return st.get(id, true) }

// getClean is Get for a caller that changes none of the client's state —
// evaluation. It leaves a clean entry clean, and a rehydrated client keeps
// its record.
func (st *ClientStore) getClean(id int) *Client { return st.get(id, false) }

func (st *ClientStore) get(id int, dirty bool) *Client {
	if id < 0 || id >= st.n {
		panic(fmt.Sprintf("fl: client id %d out of fleet range [0,%d)", id, st.n))
	}
	st.mu.Lock()
	for {
		if el, ok := st.resident[id]; ok {
			st.lru.MoveToFront(el)
			r := el.Value.(*resident)
			if dirty && r.clean {
				r.clean = false
				if _, ok := st.seg.index[id]; ok {
					st.seg.release(id)
				}
			}
			st.mu.Unlock()
			return r.c
		}
		if !st.loading[id] {
			break
		}
		st.loaded.Wait()
	}
	// This call owns id until it publishes: nothing else reads, frees or
	// rewrites the record, so the heavy part runs outside the lock.
	st.loading[id] = true
	sp, spilled := st.seg.index[id]
	f := st.seg.f
	var sb *spillBuf
	if spilled {
		if n := len(st.bufs); n > 0 {
			sb, st.bufs = st.bufs[n-1], st.bufs[:n-1]
		} else {
			sb = new(spillBuf)
		}
	}
	st.mu.Unlock()

	r := &resident{c: st.build(id), clean: !dirty}
	var err error
	if spilled {
		err = r.rehydrate(f, sp, sb)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.loading, id)
	st.loaded.Broadcast()
	if spilled {
		st.bufs = append(st.bufs, sb)
		if err != nil {
			// The builder is a pure function of id and the record is this
			// store's own — spilled from this client, or checked against it
			// by RestoreTouched — so a read or shape failure is an invariant
			// violation, not a recoverable condition.
			panic(fmt.Sprintf("fl: rehydrating client %d: %v", id, err))
		}
		if dirty {
			st.seg.release(id)
		}
	}
	st.resident[id] = st.lru.PushFront(r)
	return r.c
}

// EvictToBudget evicts least-recently-used clients until the resident
// count is within budget, skipping clients the scheduler still holds in
// flight (pinned). A nil pinned means nothing is pinned. A dirty client
// spills its state as a record; a clean one is forgotten. Either way what
// it holds is recycled for the next client built.
func (st *ClientStore) EvictToBudget(pinned func(id int) bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.budget <= 0 {
		return nil
	}
	for el := st.lru.Back(); el != nil && st.lru.Len() > st.budget; {
		prev := el.Prev()
		r := el.Value.(*resident)
		if pinned == nil || !pinned(r.c.ID) {
			if !r.clean {
				if err := st.spillLocked(r); err != nil {
					return fmt.Errorf("fl: spilling client %d: %w", r.c.ID, err)
				}
			}
			st.lru.Remove(el)
			delete(st.resident, r.c.ID)
			r.c.recycle()
		}
		el = prev
	}
	return nil
}

// recycle hands what a client the store dropped holds to the next client
// built — its model, moments included, to the models free list
// (SplitModel.Recycle), its upload vector to the tensor pool — and clears
// the fields that held them. Nothing may use the client afterwards; the
// scheduler's pin keeps every client whose update is still in flight
// resident.
func (c *Client) recycle() {
	if c.Model != nil {
		c.Model.Recycle()
	}
	tensor.PutStorage(c.upload)
	c.Model, c.Optimizer, c.upload = nil, nil, nil
}

// spillLocked writes r's state as one record.
func (st *ClientStore) spillLocked(r *resident) error {
	if err := st.sb.encodeClient(r); err != nil {
		return err
	}
	return st.seg.put(r.c.ID, st.sb.rec)
}

// counters returns the optimizer's State: what a record carries of it
// beside the model's moments.
func (c *Client) counters() (opt.State, error) {
	if c.Optimizer == nil {
		return opt.State{}, nil
	}
	o, ok := c.Optimizer.(opt.Checkpointable)
	if !ok {
		return opt.State{}, fmt.Errorf("optimizer: cannot be checkpointed (implement opt.Checkpointable)")
	}
	return o.State(), nil
}

// encodeClient writes r's state as one record into sb.rec. The parameters
// and the moments in use are framed where they lie, in the model's slabs at
// their storage codec; the buffers pass through sb.vec.
func (sb *spillBuf) encodeClient(r *resident) error {
	c := r.c
	if c.Src == nil {
		return fmt.Errorf("client has no serializable RNG (set fl.Client.Src via xrand.NewRand)")
	}
	st, err := c.counters()
	if err != nil {
		return err
	}
	params, bufs := c.lists()
	b := binary.LittleEndian.AppendUint64(sb.rec[:0], c.Src.State())
	b = binary.LittleEndian.AppendUint64(b, uint64(len(st.Ints)))
	for _, v := range st.Ints {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	vals, _ := nn.Flat(params)
	b = appendSlab(b, recParams, &vals)
	sb.vec = nn.AppendFlatBuffers(sb.vec[:0], bufs)
	b = comm.AppendFrame(b, comm.Spec{}, recBuffers, sb.vec, nil)
	if nn.MomentsLive(params) {
		for _, p := range params {
			b = appendSlab(b, recMoment, p.M)
		}
		for _, p := range params {
			b = appendSlab(b, recMoment, p.V)
		}
	}
	sb.rec = b
	return nil
}

// appendSlab frames t where it lies, at its storage codec.
func appendSlab(b []byte, kind uint32, t *tensor.Tensor) []byte {
	body := comm.SlabBody(t)
	return body.AppendFrame(b, comm.Spec{Value: body.Codec()}, kind, nil)
}

// rehydrate reads r's record and decodes it straight into the freshly
// built client's model, and its counters into the optimizer.
func (r *resident) rehydrate(f *os.File, sp span, sb *spillBuf) error {
	if err := sb.read(f, sp); err != nil {
		return err
	}
	c := r.c
	params, bufs := c.lists()
	rng, ints, err := sb.decode(sb.rec, params, bufs, true)
	if err != nil {
		return err
	}
	c.Src.SetState(rng) // non-nil, or the spill or restore would have failed
	if o, ok := c.Optimizer.(opt.Checkpointable); ok {
		return o.SetState(opt.State{Ints: ints})
	}
	return nil
}

// CaptureTouched copies out the record of every client this store has ever
// marked dirty, once each, sorted by id, into buffers a checkpoint may own
// indefinitely: a dirty resident is encoded from its tensors, everyone else
// read from the segment as it lies (a clean rehydrated client is resident
// and indexed; its record is its state). A client never dirtied carries no
// state beyond its id (the builder reproduces it), so it is deliberately
// absent: evaluation alone does not put a client into a checkpoint.
func (st *ClientStore) CaptureTouched() ([]ClientRecord, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ClientRecord, 0, len(st.resident)+len(st.seg.index))
	for id, sp := range st.seg.index {
		rec := make([]byte, sp.n)
		if _, err := st.seg.f.ReadAt(rec, sp.off); err != nil {
			return nil, fmt.Errorf("fl: reading spilled client %d: %w", id, err)
		}
		out = append(out, ClientRecord{ID: id, Rec: rec})
	}
	for el := st.lru.Front(); el != nil; el = el.Next() {
		r := el.Value.(*resident)
		if r.clean {
			continue
		}
		if err := st.sb.encodeClient(r); err != nil {
			return nil, fmt.Errorf("fl: checkpointing client %d: %w", r.c.ID, err)
		}
		// A copy: the spill scratch is reused by the next eviction.
		out = append(out, ClientRecord{ID: r.c.ID, Rec: append([]byte(nil), st.sb.rec...)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// RestoreTouched resets the store to hold exactly the given touched-client
// records, taken at dtype dt; every resident client is dropped, so the next
// Get of any id rebuilds and rehydrates from the checkpoint. Each record is
// first checked: its id is in the fleet and appears once, it decodes, and
// it fits its client — the resident one, or one built for the check — so a
// checkpoint of another fleet is an error here, not a failed rehydration
// mid-run. A client the store already holds must have a record: an eager
// store holds every client from construction, and a lazy one resumed in a
// fresh process has touched only Setup's probe set, which the checkpointed
// run touched too. Only then do the records go, byte for byte and lossy
// ones too, into a new segment that replaces the old one: a rejected restore
// leaves the store as it was. It must not run concurrently with Get.
func (st *ClientStore) RestoreTouched(recs []ClientRecord, dt tensor.DType) error {
	held := make(map[int]bool, len(recs))
	var sb spillBuf
	for _, cr := range recs {
		if cr.ID < 0 || cr.ID >= st.n {
			return fmt.Errorf("fl: checkpoint references client %d of a %d-client fleet", cr.ID, st.n)
		}
		if held[cr.ID] {
			return fmt.Errorf("fl: checkpoint holds client %d twice", cr.ID)
		}
		held[cr.ID] = true
		// A client built for the check is built outside the lock, as Get
		// builds, and dropped after it: recycled, as an evicted client is,
		// by a store with a budget, so a resume of many touched clients
		// builds one model per config. An unbounded store never evicts;
		// NewSimulation's builder hands back the fleet's own clients.
		st.mu.Lock()
		el, ok := st.resident[cr.ID]
		st.mu.Unlock()
		var err error
		if ok {
			err = sb.check(el.Value.(*resident).c, cr.Rec, dt)
		} else {
			c := st.build(cr.ID)
			err = sb.check(c, cr.Rec, dt)
			if st.budget > 0 {
				c.recycle()
			}
		}
		if err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	lacking := st.n
	for id, el := range st.resident {
		if !held[id] && !el.Value.(*resident).clean {
			lacking = min(lacking, id)
		}
	}
	for id := range st.seg.index {
		if !held[id] {
			lacking = min(lacking, id)
		}
	}
	if lacking < st.n {
		return fmt.Errorf("fl: checkpoint has no state for client %d, which this fleet already holds", lacking)
	}
	var seg segment
	for _, cr := range recs {
		if err := seg.put(cr.ID, cr.Rec); err != nil {
			seg.close()
			return fmt.Errorf("fl: restoring client %d: %w", cr.ID, err)
		}
	}
	st.seg.close()
	st.seg = seg
	st.resident = make(map[int]*list.Element)
	st.lru.Init()
	return nil
}

// check reports, without touching c, why rec — a record taken at dtype dt —
// cannot be rehydrated into c: it does not decode, or it does not fit c's
// architecture, dtype or optimizer counters, and the first Get would fail
// mid-run.
func (sb *spillBuf) check(c *Client, rec []byte, dt tensor.DType) error {
	if c.Src == nil {
		return fmt.Errorf("fl: client %d has no serializable RNG (set fl.Client.Src via xrand.NewRand)", c.ID)
	}
	if c.Model != nil && c.Model.DType() != dt {
		return fmt.Errorf("fl: checkpoint was taken at dtype %s, fleet is %s (resume with the same -dtype)", dt, c.Model.DType())
	}
	params, bufs := c.lists()
	st, err := c.counters()
	var ints []int64
	if err == nil {
		_, ints, err = sb.decode(rec, params, bufs, false)
	}
	if err == nil && len(ints) != len(st.Ints) {
		err = fmt.Errorf("optimizer: checkpoint has %d counters, the optimizer keeps %d", len(ints), len(st.Ints))
	}
	if err != nil {
		return fmt.Errorf("fl: restoring client %d %w", c.ID, err)
	}
	return nil
}

// CheckRecords reports the first of recs that does not decode: what a
// checkpoint's client section must pass to load.
func CheckRecords(recs []ClientRecord) error {
	var sb spillBuf
	for _, cr := range recs {
		if _, _, err := sb.decode(cr.Rec, nil, nil, false); err != nil {
			return fmt.Errorf("client %d: %w", cr.ID, err)
		}
	}
	return nil
}

// span locates one record in the segment file.
type span struct{ off, n int64 }

// segment is the spill file and what is known about it in memory: where each
// spilled client's record lies and which slots are vacant. Callers hold the
// store lock, except for reads of a record its loader owns (see Get).
type segment struct {
	f     *os.File          // nil until the first put
	end   int64             // file length: below it every byte is a live or a vacant record
	index map[int]span      // spilled client → its record
	free  map[int64][]int64 // record length → offsets of vacant slots
}

// put writes rec as id's record, into a vacant slot of its length when there
// is one and at the end of the file otherwise.
func (s *segment) put(id int, rec []byte) error {
	if s.f == nil {
		f, err := os.CreateTemp("", "fl-spill-*")
		if err != nil {
			return err
		}
		// Unlinked while open: the file has no name to leak, and its
		// blocks are freed when the descriptor closes with the process.
		if err := os.Remove(f.Name()); err != nil {
			f.Close()
			return err
		}
		s.f, s.index, s.free = f, make(map[int]span), make(map[int64][]int64)
	}
	sp := span{off: s.end, n: int64(len(rec))}
	vacant := s.free[sp.n]
	if len(vacant) > 0 {
		sp.off = vacant[len(vacant)-1]
	}
	if _, err := s.f.WriteAt(rec, sp.off); err != nil {
		return err
	}
	if len(vacant) > 0 {
		s.free[sp.n] = vacant[:len(vacant)-1]
	} else {
		s.end += sp.n
	}
	s.index[id] = sp
	return nil
}

// release forgets id's record and marks its slot vacant.
func (s *segment) release(id int) {
	sp := s.index[id]
	delete(s.index, id)
	s.free[sp.n] = append(s.free[sp.n], sp.off)
}

func (s *segment) close() {
	if s.f != nil {
		s.f.Close() // unlinked and never read again: nothing to report
	}
}

// Record layout, little-endian:
//
//	[rng u64] [#ints u64] [ints i64…] [params] [buffers] [moment]…
//
// where each bracketed vector is a u64 byte length, then a dense comm frame
// whose kind tag is one of the rec* constants, read back through
// comm.Reader.DenseFrame. A spilled record frames the parameters and the
// moments at their slab's storage codec (F64, or F32 for f32 and bf16
// models) and the buffers at F64, all lossless; a checkpoint writes them at
// its own codec (AppendRecord). The moments run to the end: none, or the
// model's moment slab in blocks, every parameter's m and then every v. The
// checkpoint's client section is these records.
const (
	recParams uint32 = iota + 1
	recBuffers
	recMoment
)

// spillBuf is the scratch one record passes through: its bytes and the
// staging vector of the batch-norm buffers, float64 bookkeeping. Both keep
// their capacity, so a warmed store encodes without allocating.
type spillBuf struct {
	rec []byte
	vec []float64
}

// AppendRecord appends the client record rec to dst with every vector frame
// at the dense codec c: a frame already at c is copied byte for byte, any
// other decoded and framed again at c. Checkpoints write clients through it.
func AppendRecord(dst, rec []byte, c comm.Codec) ([]byte, error) {
	r := comm.NewReader(rec, "client record")
	recHeader(&r)
	dst = append(dst, rec[:len(rec)-r.Len()]...)
	for kind := recParams; r.Err() == nil && (kind <= recBuffers || r.Len() > 0); kind = min(kind+1, recMoment) {
		if b := r.DenseFrame(kind); r.Err() == nil {
			dst = b.AppendFrame(dst, comm.Spec{Value: c}, kind, nil)
		}
	}
	return dst, r.Err()
}

// read fills sb.rec with the record at sp.
func (sb *spillBuf) read(f *os.File, sp span) error {
	if int64(cap(sb.rec)) < sp.n {
		sb.rec = make([]byte, sp.n)
	}
	sb.rec = sb.rec[:sp.n]
	_, err := f.ReadAt(sb.rec, sp.off)
	return err
}

// recHeader reads a record's RNG position and optimizer ints.
func recHeader(r *comm.Reader) (rng uint64, ints []int64) {
	rng = r.U64()
	if n := r.Count(8); n > 0 {
		ints = make([]int64, n)
		for i := range ints {
			ints[i] = r.I64()
		}
	}
	return rng, ints
}

// decode parses rec and checks it against a model with the given
// parameters and buffers (none with nil params): the value counts, and
// either no moment frames or two per parameter, each as long as its
// parameter. With into set it decodes every frame straight into the model,
// whatever codec wrote it, and takes the moments out of use when the record
// has none. It returns the RNG position and the optimizer counters.
func (sb *spillBuf) decode(rec []byte, params []*nn.Param, bufs [][]float64, into bool) (rng uint64, ints []int64, err error) {
	r := comm.NewReader(rec, "client record")
	rng, ints = recHeader(&r)
	model, total := params != nil, nn.NumParams(params)
	if b := r.DenseFrame(recParams); model && r.Err() == nil && b.Len() != total {
		return rng, ints, fmt.Errorf("parameters: checkpoint has %d values, model has %d", b.Len(), total)
	} else if vals, _ := nn.Flat(params); into && r.Err() == nil {
		if err := b.DecodeInto(&vals); err != nil {
			return rng, ints, fmt.Errorf("parameters: %w", err)
		}
	}
	if b := r.DenseFrame(recBuffers); model && r.Err() == nil && b.Len() != nn.NumBuffered(bufs) {
		return rng, ints, fmt.Errorf("buffers: checkpoint has %d values, model has %d", b.Len(), nn.NumBuffered(bufs))
	} else if sb.vec = b.Decode(sb.vec[:0]); into && r.Err() == nil {
		if err := nn.SetFlatBuffers(bufs, sb.vec); err != nil {
			return rng, ints, fmt.Errorf("buffers: %w", err)
		}
	}
	frames := 0
	for ; r.Err() == nil && r.Len() > 0; frames++ {
		b := r.DenseFrame(recMoment)
		if !model || r.Err() != nil || frames >= 2*len(params) { // too many: counted, refused below
			continue
		}
		p := params[frames%len(params)]
		if b.Len() != p.Value.Size() {
			return rng, ints, fmt.Errorf("moments: frame %d has %d values, not one per value of its parameter", frames, b.Len())
		}
		if into {
			nn.UseMoments(params)
			dst := p.M
			if frames >= len(params) {
				dst = p.V
			}
			b.DecodeInto(dst) // as long as dst: checked above
		}
	}
	switch {
	case r.Err() != nil:
		return rng, ints, r.Err()
	case model && frames != 0 && frames != 2*len(params):
		return rng, ints, fmt.Errorf("moments: %d frames, want none or 2 per parameter of %d", frames, len(params))
	case into && frames == 0 && len(params) > 0:
		nn.DropMoments(params)
	}
	return rng, ints, nil
}
