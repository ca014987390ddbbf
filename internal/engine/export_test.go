package engine

import "repro/internal/model"

// SlotOf exposes the memo's direct-mapped slot choice, so tests can
// build colliding shapes.
func SlotOf(op *model.Op) int { return slotOf(op) }
