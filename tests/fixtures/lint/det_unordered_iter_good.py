"""Negative fixture: sorted() pins the send order."""


class Broadcaster:
    def broadcast(self, targets: set, msg):
        for node in sorted(targets):
            self._send(node, msg)

    def _send(self, node, msg):
        pass


class Rendezvous:
    def release(self, parked: list):
        # Arrival order decides which woken process runs first.
        for process in parked:
            process.resume()
