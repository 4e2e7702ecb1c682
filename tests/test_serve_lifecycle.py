"""Server lifecycle: shutdown with idle keep-alive connections open."""

from __future__ import annotations

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

from repro.serve.app import ServeApp, ServeConfig

SRC = Path(__file__).resolve().parent.parent / "src"


class TestShutdown:
    def test_stop_closes_an_idle_keepalive_connection(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(
                head.lower().split(b"content-length: ")[1].split(b"\r\n")[0]
            )
            await reader.readexactly(length)
            # stop() must not wait on the idle connection, and must close it.
            await asyncio.wait_for(app.stop(), timeout=5)
            tail = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return head, tail

        head, tail = asyncio.run(scenario())
        assert head.startswith(b"HTTP/1.1 200")
        assert b"keep-alive" in head.lower()
        assert tail == b""

    def test_sigint_with_an_idle_keepalive_connection(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"serving on http://([\d.]+):(\d+)", line)
            assert match, line
            with socket.create_connection(
                (match.group(1), int(match.group(2))), timeout=10
            ) as client:
                client.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = b""
                while b'"ok"' not in reply:
                    chunk = client.recv(4096)
                    assert chunk, reply
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 200")
                # The connection stays open (keep-alive) across the signal.
                process.send_signal(signal.SIGINT)
                stdout, stderr = process.communicate(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "server shutdown clean" in stdout
        assert "Traceback" not in stderr, stderr
