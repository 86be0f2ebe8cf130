// Package fanout runs one function on several goroutines at once and
// waits for all of them, so that a worker's panic reaches the caller's
// goroutine instead of killing the process. A caller fenced by a
// recover wrapper (core.Guard) therefore sees a panic in any of its
// fanned-out workers as if the caller itself had panicked.
package fanout

import "sync"

// Run calls fn(0), ..., fn(n-1) concurrently: fn(0) on the calling
// goroutine and each other call on a goroutine of its own. It returns
// once every call has returned. If any call panicked, Run then panics
// on the calling goroutine with the value of the first panic it
// recovered. With n <= 1 it calls fn(0) directly.
func Run(n int, fn func(worker int)) {
	if n <= 1 {
		fn(0)
		return
	}
	g := new(group)
	g.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go g.work(fn, w)
	}
	g.call(fn, 0)
	g.wg.Wait()
	if g.first != nil {
		panic(g.first)
	}
}

// group is the shared state of one Run.
type group struct {
	wg   sync.WaitGroup
	once sync.Once
	// first is the first recovered panic value, written once under
	// once and read by Run after wg.Wait.
	first any
}

func (g *group) work(fn func(int), w int) {
	defer g.wg.Done()
	g.call(fn, w)
}

// call runs fn(w) and records its panic, if any. A recovered value is
// never nil: since Go 1.21 panic(nil) panics with *runtime.PanicNilError.
func (g *group) call(fn func(int), w int) {
	defer func() {
		if r := recover(); r != nil {
			g.once.Do(func() { g.first = r })
		}
	}()
	fn(w)
}
