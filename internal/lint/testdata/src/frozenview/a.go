// Fixture for frozenview: mutating methods on graphs reached from a read
// view (acquireRead, epochView, viewSet.pin) are flagged;
// clones, fresh graphs, and the allow-listed replay functions are not.
package frozenview

type Graph struct{ n int }

func (g *Graph) AddEdge(u, v int) error    { return nil }
func (g *Graph) RemoveEdge(u, v int) error { return nil }
func (g *Graph) AddNode(u int)             {}
func (g *Graph) Clone() *Graph             { return &Graph{n: g.n} }
func (g *Graph) Degree(u int) int          { return 0 }

type Interner struct{}

func (i *Interner) Intern(s string) int { return 0 }
func (i *Interner) Lookup(s string) int { return 0 }

type readCtx struct {
	g       *Graph
	names   *Interner
	release func()
}

type epochView struct {
	g    *Graph
	refs int
}

type viewSet struct{ cur *epochView }

func (vs *viewSet) pin() *epochView    { return vs.cur }
func (vs *viewSet) unpin(v *epochView) {}

type server struct {
	g     *Graph
	views *viewSet
}

func (s *server) acquireRead() readCtx { return readCtx{g: s.g} }

func mutateAcquired(s *server) {
	rc := s.acquireRead()
	defer rc.release()
	_ = rc.g.AddEdge(1, 2) // want `rc\.g\.AddEdge mutates a frozen read view`
}

func mutateViaLocal(s *server) {
	rc := s.acquireRead()
	g := rc.g
	g.AddNode(7) // want `g\.AddNode mutates a frozen read view`
}

func mutatePinned(s *server) {
	v := s.views.pin()
	defer s.views.unpin(v)
	_ = v.g.RemoveEdge(1, 2) // want `v\.g\.RemoveEdge mutates a frozen read view`
}

func mutateInterner(rc readCtx) {
	_ = rc.names.Intern("x") // want `rc\.names\.Intern mutates a frozen read view`
}

func mutateReplica(rep *epochView) {
	_ = rep.g.AddEdge(1, 2) // want `rep\.g\.AddEdge mutates a frozen read view`
}

func okReads(s *server) int {
	rc := s.acquireRead()
	_ = rc.names.Lookup("x") // ok: Lookup is not in the mutator set
	return rc.g.Degree(3)    // ok: reads never mutate
}

func okClone(s *server) {
	rc := s.acquireRead()
	mine := rc.g.Clone()
	mine.AddNode(1) // ok: a deep copy is the caller's own graph
	_ = mine.AddEdge(1, 2)
}

func okFreshGraph() *Graph {
	g := &Graph{}
	g.AddNode(1) // ok: never published
	return g
}

// catchUp is the writer's delta replay: it mutates a pinned, unpublished
// replica by design and is allow-listed by identity.
func (vs *viewSet) catchUp(rep *epochView) {
	_ = rep.g.AddEdge(1, 2) // ok: sanctioned replay
	_ = rep.g.RemoveEdge(3, 4)
}

// newViewSet seeds the first epoch's replica before anything is
// published; also allow-listed.
func newViewSet(s *server) *viewSet {
	rc := s.acquireRead()
	rc.g.AddNode(0) // ok: construction-time, nothing published yet
	return &viewSet{cur: &epochView{g: rc.g}}
}

func allowedEscapeHatch(s *server) {
	rc := s.acquireRead()
	//lint:allow frozenview migration shim: epoch 0 is private to this worker
	_ = rc.g.AddEdge(9, 9)
}
