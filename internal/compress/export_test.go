package compress

// Inline reports whether w runs each chunk inline instead of on a pool.
func (w *Writer) Inline() bool { return w.sched == nil }

// Inline reports whether r runs each chunk inline instead of on a pool.
func (r *Reader) Inline() bool { return r.sched == nil }
