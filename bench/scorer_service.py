"""Loopback consistency-scoring service for the ``fcm_remote`` workload.

One process, one thread: ``http.server.HTTPServer`` handles a request at a
time, like a small evaluator behind a single worker.  ``POST /score`` with
``{"hypothesis", "reference"}`` answers ``{"consistency"}``, the same
weighted token F1 the local scorer computes, so a run against it must
reproduce the local run bit for bit.  The bound port is printed on the first
line of standard output once the socket listens; the service runs until it
is terminated.

    python3 bench/scorer_service.py --src src
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer


def make_handler(score):
    class ScoreHandler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 - http.server naming
            if self.path != "/score":
                self.send_error(404)
                return
            try:
                doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                value = score(doc["hypothesis"], doc["reference"])
            except (KeyError, TypeError, ValueError):
                self.send_error(400)
                return
            body = json.dumps({"consistency": value}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # noqa: A002 - http.server signature
            pass

    return ScoreHandler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the fcmax package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from fcmax.corpus import SynthConfig, default_token_weights
    from fcmax.scorers import weighted_token_f1

    weights = default_token_weights(SynthConfig(n_samples=0))
    server = HTTPServer(("127.0.0.1", 0),
                        make_handler(lambda hyp, ref: weighted_token_f1(hyp, ref, weights)))
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
