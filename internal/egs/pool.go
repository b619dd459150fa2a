package egs

import "sync"

// assessJob asks a pool worker to run one stage of a slot's
// assessment — prepare, or evaluate when evaluate is set — and signal
// wg.
type assessJob struct {
	sl       *assessSlot
	p        *cellParams
	a        *assessor
	evaluate bool
	wg       *sync.WaitGroup
}

// assessPool is a bounded worker pool for batch context assessment.
// The searcher stages one batch (the successors of a popped context,
// deduplicated and seq-stamped sequentially), fans the assessment
// stages out here, waits, and then pushes results in staging order —
// so the worklist contents are bit-identical to a sequential run while
// the rule evaluations, the expensive part, proceed in parallel.
//
// Workers never block on anything except the jobs channel, and the
// submitting goroutine only blocks on wg after sending every job, so
// the pool cannot deadlock. Memory effects of a worker's assessment
// happen-before the submitter's wg.Wait return.
type assessPool struct {
	jobs chan assessJob
	wg   sync.WaitGroup // tracks worker goroutines, not jobs
}

func newAssessPool(workers int) *assessPool {
	p := &assessPool{jobs: make(chan assessJob, workers*2)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				if j.evaluate {
					j.a.evaluate(j.sl, j.p)
				} else {
					j.a.prepare(j.sl, j.p)
				}
				j.wg.Done()
			}
		}()
	}
	return p
}

// submit enqueues one assessment; the caller's wg must already count it.
func (p *assessPool) submit(j assessJob) { p.jobs <- j }

// close shuts the workers down and waits for them to exit. Safe to
// call once; callers must not submit afterwards.
func (p *assessPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
