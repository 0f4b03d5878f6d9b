package tcam

// Insert, InsertRanked, Delete and DeleteAll stand in for the TCAM model's
// write methods, which the tablewrite corpus calls.
func (t *Table) Insert(r Rule) (int, error) { return t.InsertRanked(r, 0) }

func (t *Table) InsertRanked(r Rule, rank uint64) (int, error) {
	t.entries = append(t.entries, r)
	return len(t.entries), nil
}

func (t *Table) Delete(id uint64) (int, bool) {
	n, _ := t.DeleteAll([]uint64{id})
	return 1, n > 0
}

func (t *Table) DeleteAll(ids []uint64) (int, int) {
	n := len(t.entries)
	for _, id := range ids {
		for i, r := range t.entries {
			if r.ID == id {
				t.entries = append(t.entries[:i], t.entries[i+1:]...)
				break
			}
		}
	}
	return n - len(t.entries), n - len(t.entries)
}

// Len only reads.
func (t *Table) Len() int { return len(t.entries) }
