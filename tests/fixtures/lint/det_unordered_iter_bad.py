"""Positive fixture: set iteration order decides message order."""


class Broadcaster:
    def broadcast(self, targets: set, msg):
        for node in targets:
            self._send(node, msg)

    def _send(self, node, msg):
        pass


class Rendezvous:
    def release(self, parked: set):
        # Set order decides which woken process runs first.
        for process in parked:
            process.resume()
