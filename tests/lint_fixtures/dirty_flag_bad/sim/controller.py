"""Fixture: a scheduling-state mutation that never resets the memo."""


class MemoryController:
    def mark_dirty(self):
        self._epoch += 1
        self._progress_at = 0

    def issue_col(self, now):
        # BAD: bus_next moves but the schedule() memo is never reset.
        self.bus_next = now + 4
        return True
