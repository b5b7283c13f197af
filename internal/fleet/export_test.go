package fleet

// Topo returns the stats row for a topology class, or nil.
func (r *Report) Topo(key string) *TopoStat {
	for i := range r.Topos {
		if r.Topos[i].Topo == key {
			return &r.Topos[i]
		}
	}
	return nil
}
