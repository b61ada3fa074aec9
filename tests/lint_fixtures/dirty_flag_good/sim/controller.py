"""Fixture: every mutation path marks, including the boolean-flag idiom."""


class MemoryController:
    def mark_dirty(self):
        self._epoch += 1
        self._progress_at = 0

    def issue_col(self, now):
        self.bus_next = now + 4
        self._progress_at = 0
        return True

    def promote(self):
        promoted = False
        while self.read_q:
            self.read_q.pop()
            promoted = True
        if promoted:
            self.mark_dirty()

    def block(self, rank):
        if rank not in self.blocked_ranks:
            self.blocked_ranks.add(rank)
            self.mark_dirty()
