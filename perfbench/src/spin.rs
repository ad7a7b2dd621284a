//! A query connection that busy-polls for its replies.
//!
//! A thread blocked in `read` is woken by the kernel when the reply
//! arrives; on a small virtual machine that wake-up costs tens of
//! microseconds, varies with the host's load, and would be charged to the
//! daemon. Polling the non-blocking socket instead leaves only the daemon's
//! own time and the loopback round trip in each latency sample.

use crate::inputs::{Comp, MAX_CS};
use cts_daemon::wire::{self, recv_frame, Msg, Recv};
use cts_model::EventId;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

pub struct SpinConn {
    s: TcpStream,
}

fn unexpected(got: Msg) -> io::Error {
    let text = match got {
        Msg::Error { code, message } => format!("daemon error {code}: {message}"),
        other => format!("unexpected reply: {other:?}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, text)
}

impl SpinConn {
    pub fn connect(addr: SocketAddr) -> io::Result<SpinConn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(SpinConn { s })
    }

    /// Send one request and spin until its reply is complete.
    fn call(&mut self, msg: &Msg) -> io::Result<Msg> {
        let payload = msg.encode();
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut sent = 0;
        while sent < frame.len() {
            match self.s.write(&frame[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            match recv_frame(&mut self.s)? {
                Recv::Frame(p) => {
                    return Msg::decode(&p)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
                Recv::Idle => std::hint::spin_loop(),
                Recv::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
            }
        }
    }

    pub fn proto_hello(&mut self) -> io::Result<()> {
        match self.call(&Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        })? {
            Msg::ProtoHelloAck { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn hello(&mut self, comp: &Comp) -> io::Result<()> {
        match self.call(&Msg::Hello {
            computation: comp.name.clone(),
            num_processes: comp.trace.num_processes(),
            max_cluster_size: MAX_CS,
        })? {
            Msg::HelloAck { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn precedes(&mut self, e: EventId, f: EventId) -> io::Result<bool> {
        match self.call(&Msg::QueryPrecedes { e, f })? {
            Msg::PrecedesResult { precedes, .. } => Ok(precedes),
            other => Err(unexpected(other)),
        }
    }

    pub fn asof_precedes(&mut self, epoch: u64, e: EventId, f: EventId) -> io::Result<bool> {
        match self.call(&Msg::QueryAsOfPrecedes { epoch, e, f })? {
            Msg::PrecedesResult { precedes, .. } => Ok(precedes),
            other => Err(unexpected(other)),
        }
    }

    pub fn greatest_concurrent(&mut self, e: EventId) -> io::Result<Vec<Option<EventId>>> {
        match self.call(&Msg::QueryGreatestConcurrent { e })? {
            Msg::GcResult { slots, .. } => Ok(slots),
            other => Err(unexpected(other)),
        }
    }

    pub fn precedes_batch(
        &mut self,
        pairs: &[(EventId, EventId)],
    ) -> io::Result<Vec<Option<bool>>> {
        match self.call(&Msg::QueryPrecedesBatch {
            pairs: pairs.to_vec(),
        })? {
            Msg::PrecedesBatchResult { verdicts, .. } => Ok(verdicts),
            other => Err(unexpected(other)),
        }
    }
}
