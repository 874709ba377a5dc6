"""Loopback stand-in for a chat-completions server, stdlib only.

Usage: ``python3 endpoint.py SRC_DIR DELAY_MS``. Binds 127.0.0.1 on a free
port and prints the port on its first stdout line. ``POST
/v1/chat/completions`` waits DELAY_MS, answers through pheno_mine's
``MockBackend`` with the bundled rules on the combined list, and closes the
connection, as ``requests.post`` expects. ``GET /served`` returns the number
of completions answered so far. Stop it with SIGTERM.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def make_handler(backend, delay_s: float):
    from pheno_mine.gateway import CompletionRequest

    lock = threading.Lock()
    served = [0]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0"  # one request per connection

        def _send(self, status: int, doc: dict):
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/served":
                self._send(404, {"error": "not found"})
                return
            with lock:
                count = served[0]
            self._send(200, {"served": count})

        def do_POST(self):
            if self.path != "/v1/chat/completions":
                self._send(404, {"error": "not found"})
                return
            doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            request = CompletionRequest(
                prompt=doc["messages"][0]["content"],
                model=doc["model"],
                temperature=doc["temperature"],
                max_output_tokens=doc["max_tokens"],
            )
            time.sleep(delay_s)
            text = backend.complete_text(request)
            with lock:
                served[0] += 1
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

        def log_message(self, format, *args):
            pass

    return Handler


def main(src: str, delay_ms: float):
    sys.path.insert(0, src)
    from pheno_mine.gateway import MockBackend, MockRuleTable
    from pheno_mine.schema import resolve_list

    plist = resolve_list("combined")
    rules = Path(src) / "pheno_mine" / "data" / "mock_rules.csv"
    backend = MockBackend(MockRuleTable.from_csv(rules).restricted_to(plist), plist)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(backend, delay_ms / 1000.0))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
