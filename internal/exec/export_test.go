package exec

// Buffered reports whether s holds an output buffer for node id.
func (s *Session) Buffered(id int) bool { return s.bufs[id] != nil }

// Fused returns the ReLU node p fuses conv node c with, or 0.
func (p *Plan) Fused(c int) int { return p.relu[c] }
