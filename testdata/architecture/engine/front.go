package engine

func (o *other) touch() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dev
}

func (e *engine) peek() int {
	e.mu.Lock()         // want field
	defer e.mu.Unlock() // want field
	return e.dev        // want field
}
