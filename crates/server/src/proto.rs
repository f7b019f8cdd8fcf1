//! Client ↔ server protocol.
//!
//! One duplex connection per client carries three kinds of traffic,
//! multiplexed by the [`Envelope`]:
//!
//! * `Req`/`Resp` — sequence-numbered RPCs issued by the client;
//! * `Push` — asynchronous server-initiated messages: cache-consistency
//!   callbacks (which the client must acknowledge) and, in the integrated
//!   deployment, display-lock notifications;
//! * `PushAck` — the client's acknowledgement of an ack-bearing push.

use displaydb_common::{ClassId, ClientId, DbError, DbResult, Oid, TxnId};
use displaydb_dlm::DlmEvent;
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};

/// Lock modes requestable over the wire (transactional subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireLockMode {
    /// Update-intention lock.
    Update,
    /// Exclusive lock.
    Exclusive,
}

impl Encode for WireLockMode {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            WireLockMode::Update => 1,
            WireLockMode::Exclusive => 2,
        });
    }
}

impl Decode for WireLockMode {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            1 => WireLockMode::Update,
            2 => WireLockMode::Exclusive,
            t => return Err(DbError::Protocol(format!("unknown lock mode {t}"))),
        })
    }
}

/// One shard's notification cursor inside a resume token: the last
/// update-log seqno acked for that shard, and the durable log
/// incarnation it was acked under (0 = no durable log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCursor {
    /// The DLM shard this cursor belongs to.
    pub shard: u32,
    /// Last update-log seqno the client applied from that shard.
    pub cursor: u64,
    /// The shard's durable update-log incarnation at ack time (0 = the
    /// shard ran without a durable log).
    pub log_incarnation: u64,
}

/// The session-resume half of a [`Request::Hello`]: presented by a client
/// that was previously connected and wants its server-side session state
/// (client id, copy-table registrations) rebuilt instead of starting fresh.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeRequest {
    /// The resume token issued in the previous [`Response::HelloAck`].
    pub token: u64,
    /// The server incarnation the token was issued by. A mismatch means the
    /// server restarted; the session is rebuilt from the manifest anyway,
    /// but every manifest entry is reported stale.
    pub incarnation: u64,
    /// `(oid, version)` pairs for every object in the client's cache at
    /// disconnect time. The server re-registers these in the copy table and
    /// reports which are out of date.
    pub manifest: Vec<(Oid, u64)>,
    /// The client's notification cursors, one per DLM shard (DESIGN.md
    /// §§ 13–14, 16). Shards are admitted independently: when a shard's
    /// log still contains its cursor, the resumed session catches that
    /// shard up with a replay instead of a resync.
    pub cursors: Vec<ShardCursor>,
}

/// The resume-token wire version. Any other leading byte is rejected as a
/// protocol error — never guessed at.
const RESUME_VERSION: u8 = 2;

impl Encode for ResumeRequest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(RESUME_VERSION);
        w.put_varint(self.token);
        w.put_varint(self.incarnation);
        w.put_varint(self.manifest.len() as u64);
        for (oid, version) in &self.manifest {
            oid.encode(w);
            w.put_varint(*version);
        }
        w.put_varint(self.cursors.len() as u64);
        for sc in &self.cursors {
            w.put_varint(u64::from(sc.shard));
            w.put_varint(sc.cursor);
            w.put_varint(sc.log_incarnation);
        }
    }
}

impl Decode for ResumeRequest {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        let version = r.get_u8()?;
        if version != RESUME_VERSION {
            return Err(DbError::Protocol(format!(
                "unknown resume token version {version}"
            )));
        }
        let token = r.get_varint()?;
        let incarnation = r.get_varint()?;
        let n = r.get_varint()? as usize;
        let mut manifest = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            manifest.push((Oid::decode(r)?, r.get_varint()?));
        }
        let n = r.get_varint()? as usize;
        let mut cursors = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            cursors.push(ShardCursor {
                shard: u32::decode(r)?,
                cursor: r.get_varint()?,
                log_incarnation: r.get_varint()?,
            });
        }
        Ok(ResumeRequest {
            token,
            incarnation,
            manifest,
            cursors,
        })
    }
}

/// Client-issued requests.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// Human-readable client name (for diagnostics).
        name: String,
        /// Present when reconnecting: asks the server to rebuild the
        /// previous session instead of allocating a fresh one.
        resume: Option<ResumeRequest>,
    },
    /// Start a transaction.
    Begin,
    /// Read an object (registers the client in the copy table, making the
    /// cached copy callback-protected).
    Read {
        /// Reading transaction, if any (sees its own uncommitted writes).
        txn: Option<TxnId>,
        /// The object.
        oid: Oid,
    },
    /// Read several objects at once (one round-trip).
    ReadMany {
        /// Reading transaction, if any.
        txn: Option<TxnId>,
        /// The objects.
        oids: Vec<Oid>,
    },
    /// Acquire a transactional lock. Exclusive grants trigger callbacks to
    /// other caching clients and early-notify marks to display holders.
    Lock {
        /// The locking transaction.
        txn: TxnId,
        /// The object.
        oid: Oid,
        /// Requested mode.
        mode: WireLockMode,
    },
    /// Create a new object (server assigns the OID).
    Create {
        /// The creating transaction.
        txn: TxnId,
        /// Encoded [`displaydb_schema::DbObject`] with OID 0.
        object: Vec<u8>,
    },
    /// Write an object (implicitly acquires an exclusive lock).
    Write {
        /// The writing transaction.
        txn: TxnId,
        /// Encoded object with its real OID.
        object: Vec<u8>,
    },
    /// Delete an object (implicitly acquires an exclusive lock).
    Delete {
        /// The deleting transaction.
        txn: TxnId,
        /// The object.
        oid: Oid,
    },
    /// Commit: make writes durable, release locks, notify display holders.
    Commit {
        /// The transaction.
        txn: TxnId,
        /// End-to-end trace id minted by the committing client
        /// (DESIGN.md § 12); `0` when the client is not tracing. The
        /// server stamps it onto every notification this commit
        /// produces.
        trace: displaydb_common::TraceId,
    },
    /// Abort: discard writes, release locks.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// List all objects of a class.
    Extent {
        /// The class.
        class: ClassId,
        /// Include objects of subclasses.
        include_subclasses: bool,
    },
    /// Acquire display locks (integrated deployment). Fire-and-forget
    /// semantics but carried as an RPC so tests can fence on it.
    DisplayLock {
        /// Objects to watch.
        oids: Vec<Oid>,
    },
    /// Release display locks (integrated deployment).
    DisplayRelease {
        /// Objects to stop watching.
        oids: Vec<Oid>,
    },
    /// Acquire display locks with a registered attribute projection
    /// (integrated deployment): the client only wants notifications for
    /// changes touching `attrs` (attribute layout indices), delivered as
    /// attribute-level deltas tagged with `version`.
    DisplayLockProjected {
        /// Objects to watch.
        oids: Vec<Oid>,
        /// Projected attribute layout indices.
        attrs: Vec<u16>,
        /// The client's projection-registry version, echoed in deltas.
        version: u32,
    },
    /// Ask the DLM to replay, per listed shard, every logged
    /// notification after that shard's cursor that intersects this
    /// client's display-lock interests (integrated deployment). Shards
    /// answer independently: the suffix — or a `ResyncRequired` fallback
    /// over the client's interests on a shard whose log no longer covers
    /// its cursor — arrives as DLM pushes; the RPC response only confirms
    /// the replay was scheduled.
    ReplayFrom {
        /// `(shard, cursor)` pairs; shards not listed are untouched.
        cursors: Vec<(u32, u64)>,
    },
    /// Force a checkpoint (flush heap, truncate WAL).
    Checkpoint,
    /// Liveness probe.
    Ping,
}

/// Server responses.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake reply.
    HelloAck {
        /// The id assigned to this client.
        client: ClientId,
        /// Encoded [`displaydb_schema::Catalog`].
        catalog: Vec<u8>,
        /// Resume token to present on reconnect.
        session: u64,
        /// Server incarnation (changes when the server restarts).
        incarnation: u64,
        /// Session epoch: 0 for a fresh session, incremented on each
        /// successful resume. Pushes from earlier epochs are obsolete.
        epoch: u64,
        /// Whether the previous session was found and rebuilt.
        resumed: bool,
        /// Manifest entries whose cached version is out of date (or whose
        /// currency could not be proven, e.g. after a server restart). The
        /// client must invalidate these before serving them again.
        stale: Vec<Oid>,
        /// Whether some shard's update log still covers the resumed
        /// client's cursor for it: the client should catch up with
        /// `ReplayFrom{cursors}` instead of resyncing `stale`. With a
        /// durable log this can hold even across a server restart
        /// (DESIGN.md § 14). Always false for fresh sessions and
        /// truncated cursors.
        replay_ok: bool,
        /// Per-shard durable update-log incarnations (index = shard id,
        /// 0 = that shard has no durable log). The client persists these
        /// alongside its per-shard cursors and echoes them in the next
        /// resume's cursor vector. A single-shard server reports one
        /// entry.
        shard_log_incarnations: Vec<u64>,
    },
    /// Transaction started.
    TxnStarted {
        /// Its id.
        txn: TxnId,
    },
    /// One object's encoded state.
    Object {
        /// Encoded object.
        bytes: Vec<u8>,
    },
    /// Several objects' encoded states (order matches the request; missing
    /// objects are `None`).
    Objects {
        /// Encoded objects.
        objects: Vec<Option<Vec<u8>>>,
    },
    /// Object created.
    Created {
        /// The assigned OID.
        oid: Oid,
    },
    /// A list of OIDs.
    Oids {
        /// The OIDs.
        oids: Vec<Oid>,
    },
    /// Generic success.
    Ok,
    /// Failure.
    Error {
        /// Machine-readable error category (see
        /// [`displaydb_common::DbError::kind`]).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// Convert an error into its wire form.
    pub fn from_error(e: &DbError) -> Self {
        Response::Error {
            kind: e.kind().to_string(),
            message: e.to_string(),
        }
    }

    /// Convert a wire error back into a [`DbError`].
    pub fn into_result(self) -> DbResult<Response> {
        match self {
            Response::Error { kind, message } => Err(match kind.as_str() {
                "deadlock" => DbError::Deadlock {
                    victim: TxnId::new(0),
                },
                "lock_timeout" => DbError::LockTimeout { oid: Oid::new(0) },
                "disconnected" => DbError::Disconnected,
                "timeout" => DbError::Timeout(message),
                "overloaded" => DbError::Overloaded,
                "object_not_found" => DbError::Rejected(message),
                _ => DbError::Rejected(message),
            }),
            other => Ok(other),
        }
    }
}

/// Server-initiated pushes.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerPush {
    /// Avoidance-protocol callback: drop these objects from the client
    /// database cache and acknowledge with the given id.
    Callback {
        /// Ack id to echo in [`Envelope::PushAck`].
        ack: u64,
        /// Objects to invalidate.
        oids: Vec<Oid>,
    },
    /// A display-lock notification (integrated deployment).
    Dlm(DlmEvent),
}

/// The connection multiplexing envelope.
#[derive(Clone, Debug, PartialEq)]
pub enum Envelope {
    /// A client request with its sequence number.
    Req(u64, Request),
    /// The server's response to the request with that sequence number.
    Resp(u64, Response),
    /// A server push.
    Push(ServerPush),
    /// Client acknowledgement of an ack-bearing push.
    PushAck(u64),
}

// --- encoding -------------------------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_BEGIN: u8 = 2;
const REQ_READ: u8 = 3;
const REQ_READ_MANY: u8 = 4;
const REQ_LOCK: u8 = 5;
const REQ_CREATE: u8 = 6;
const REQ_WRITE: u8 = 7;
const REQ_DELETE: u8 = 8;
const REQ_COMMIT: u8 = 9;
const REQ_ABORT: u8 = 10;
const REQ_EXTENT: u8 = 11;
const REQ_DLOCK: u8 = 12;
const REQ_DRELEASE: u8 = 13;
const REQ_CHECKPOINT: u8 = 14;
const REQ_PING: u8 = 15;
const REQ_DLOCK_PROJECTED: u8 = 16;
const REQ_REPLAY_FROM: u8 = 17;

impl Encode for Request {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Request::Hello { name, resume } => {
                w.put_u8(REQ_HELLO);
                name.encode(w);
                resume.encode(w);
            }
            Request::Begin => w.put_u8(REQ_BEGIN),
            Request::Read { txn, oid } => {
                w.put_u8(REQ_READ);
                txn.encode(w);
                oid.encode(w);
            }
            Request::ReadMany { txn, oids } => {
                w.put_u8(REQ_READ_MANY);
                txn.encode(w);
                oids.encode(w);
            }
            Request::Lock { txn, oid, mode } => {
                w.put_u8(REQ_LOCK);
                txn.encode(w);
                oid.encode(w);
                mode.encode(w);
            }
            Request::Create { txn, object } => {
                w.put_u8(REQ_CREATE);
                txn.encode(w);
                object.encode(w);
            }
            Request::Write { txn, object } => {
                w.put_u8(REQ_WRITE);
                txn.encode(w);
                object.encode(w);
            }
            Request::Delete { txn, oid } => {
                w.put_u8(REQ_DELETE);
                txn.encode(w);
                oid.encode(w);
            }
            Request::Commit { txn, trace } => {
                w.put_u8(REQ_COMMIT);
                txn.encode(w);
                w.put_varint(*trace);
            }
            Request::Abort { txn } => {
                w.put_u8(REQ_ABORT);
                txn.encode(w);
            }
            Request::Extent {
                class,
                include_subclasses,
            } => {
                w.put_u8(REQ_EXTENT);
                class.encode(w);
                include_subclasses.encode(w);
            }
            Request::DisplayLock { oids } => {
                w.put_u8(REQ_DLOCK);
                oids.encode(w);
            }
            Request::DisplayRelease { oids } => {
                w.put_u8(REQ_DRELEASE);
                oids.encode(w);
            }
            Request::DisplayLockProjected {
                oids,
                attrs,
                version,
            } => {
                w.put_u8(REQ_DLOCK_PROJECTED);
                oids.encode(w);
                w.put_varint(attrs.len() as u64);
                for a in attrs {
                    w.put_varint(u64::from(*a));
                }
                w.put_varint(u64::from(*version));
            }
            Request::ReplayFrom { cursors } => {
                w.put_u8(REQ_REPLAY_FROM);
                w.put_varint(cursors.len() as u64);
                for (shard, cursor) in cursors {
                    w.put_varint(u64::from(*shard));
                    w.put_varint(*cursor);
                }
            }
            Request::Checkpoint => w.put_u8(REQ_CHECKPOINT),
            Request::Ping => w.put_u8(REQ_PING),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            REQ_HELLO => Request::Hello {
                name: String::decode(r)?,
                resume: Option::<ResumeRequest>::decode(r)?,
            },
            REQ_BEGIN => Request::Begin,
            REQ_READ => Request::Read {
                txn: Option::<TxnId>::decode(r)?,
                oid: Oid::decode(r)?,
            },
            REQ_READ_MANY => Request::ReadMany {
                txn: Option::<TxnId>::decode(r)?,
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_LOCK => Request::Lock {
                txn: TxnId::decode(r)?,
                oid: Oid::decode(r)?,
                mode: WireLockMode::decode(r)?,
            },
            REQ_CREATE => Request::Create {
                txn: TxnId::decode(r)?,
                object: Vec::<u8>::decode(r)?,
            },
            REQ_WRITE => Request::Write {
                txn: TxnId::decode(r)?,
                object: Vec::<u8>::decode(r)?,
            },
            REQ_DELETE => Request::Delete {
                txn: TxnId::decode(r)?,
                oid: Oid::decode(r)?,
            },
            REQ_COMMIT => Request::Commit {
                txn: TxnId::decode(r)?,
                trace: r.get_varint()?,
            },
            REQ_ABORT => Request::Abort {
                txn: TxnId::decode(r)?,
            },
            REQ_EXTENT => Request::Extent {
                class: ClassId::decode(r)?,
                include_subclasses: bool::decode(r)?,
            },
            REQ_DLOCK => Request::DisplayLock {
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_DRELEASE => Request::DisplayRelease {
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_PING => Request::Ping,
            REQ_REPLAY_FROM => {
                let n = r.get_varint()? as usize;
                let mut cursors = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    cursors.push((u32::decode(r)?, r.get_varint()?));
                }
                Request::ReplayFrom { cursors }
            }
            REQ_DLOCK_PROJECTED => {
                let oids = Vec::<Oid>::decode(r)?;
                let n = r.get_varint()? as usize;
                let mut attrs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    attrs.push(u16::decode(r)?);
                }
                let version = u32::decode(r)?;
                Request::DisplayLockProjected {
                    oids,
                    attrs,
                    version,
                }
            }
            t => return Err(DbError::Protocol(format!("unknown request tag {t}"))),
        })
    }
}

const RESP_HELLO_ACK: u8 = 1;
const RESP_TXN: u8 = 2;
const RESP_OBJECT: u8 = 3;
const RESP_OBJECTS: u8 = 4;
const RESP_CREATED: u8 = 5;
const RESP_OIDS: u8 = 6;
const RESP_OK: u8 = 7;
const RESP_ERROR: u8 = 8;

impl Encode for Response {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Response::HelloAck {
                client,
                catalog,
                session,
                incarnation,
                epoch,
                resumed,
                stale,
                replay_ok,
                shard_log_incarnations,
            } => {
                w.put_u8(RESP_HELLO_ACK);
                client.encode(w);
                catalog.encode(w);
                w.put_varint(*session);
                w.put_varint(*incarnation);
                w.put_varint(*epoch);
                resumed.encode(w);
                stale.encode(w);
                replay_ok.encode(w);
                w.put_varint(shard_log_incarnations.len() as u64);
                for inc in shard_log_incarnations {
                    w.put_varint(*inc);
                }
            }
            Response::TxnStarted { txn } => {
                w.put_u8(RESP_TXN);
                txn.encode(w);
            }
            Response::Object { bytes } => {
                w.put_u8(RESP_OBJECT);
                bytes.encode(w);
            }
            Response::Objects { objects } => {
                w.put_u8(RESP_OBJECTS);
                w.put_varint(objects.len() as u64);
                for o in objects {
                    o.encode(w);
                }
            }
            Response::Created { oid } => {
                w.put_u8(RESP_CREATED);
                oid.encode(w);
            }
            Response::Oids { oids } => {
                w.put_u8(RESP_OIDS);
                oids.encode(w);
            }
            Response::Ok => w.put_u8(RESP_OK),
            Response::Error { kind, message } => {
                w.put_u8(RESP_ERROR);
                kind.encode(w);
                message.encode(w);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            RESP_HELLO_ACK => Response::HelloAck {
                client: ClientId::decode(r)?,
                catalog: Vec::<u8>::decode(r)?,
                session: r.get_varint()?,
                incarnation: r.get_varint()?,
                epoch: r.get_varint()?,
                resumed: bool::decode(r)?,
                stale: Vec::<Oid>::decode(r)?,
                replay_ok: bool::decode(r)?,
                shard_log_incarnations: {
                    let n = r.get_varint()? as usize;
                    let mut incs = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        incs.push(r.get_varint()?);
                    }
                    incs
                },
            },
            RESP_TXN => Response::TxnStarted {
                txn: TxnId::decode(r)?,
            },
            RESP_OBJECT => Response::Object {
                bytes: Vec::<u8>::decode(r)?,
            },
            RESP_OBJECTS => {
                let n = r.get_varint()? as usize;
                let mut objects = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    objects.push(Option::<Vec<u8>>::decode(r)?);
                }
                Response::Objects { objects }
            }
            RESP_CREATED => Response::Created {
                oid: Oid::decode(r)?,
            },
            RESP_OIDS => Response::Oids {
                oids: Vec::<Oid>::decode(r)?,
            },
            RESP_OK => Response::Ok,
            RESP_ERROR => Response::Error {
                kind: String::decode(r)?,
                message: String::decode(r)?,
            },
            t => return Err(DbError::Protocol(format!("unknown response tag {t}"))),
        })
    }
}

const PUSH_CALLBACK: u8 = 1;
const PUSH_DLM: u8 = 2;

impl Encode for ServerPush {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerPush::Callback { ack, oids } => {
                w.put_u8(PUSH_CALLBACK);
                w.put_varint(*ack);
                oids.encode(w);
            }
            ServerPush::Dlm(event) => {
                w.put_u8(PUSH_DLM);
                event.encode(w);
            }
        }
    }
}

impl Decode for ServerPush {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            PUSH_CALLBACK => ServerPush::Callback {
                ack: r.get_varint()?,
                oids: Vec::<Oid>::decode(r)?,
            },
            PUSH_DLM => ServerPush::Dlm(DlmEvent::decode(r)?),
            t => return Err(DbError::Protocol(format!("unknown push tag {t}"))),
        })
    }
}

const ENV_REQ: u8 = 1;
const ENV_RESP: u8 = 2;
const ENV_PUSH: u8 = 3;
const ENV_PUSH_ACK: u8 = 4;

impl Encode for Envelope {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Envelope::Req(seq, req) => {
                w.put_u8(ENV_REQ);
                w.put_varint(*seq);
                req.encode(w);
            }
            Envelope::Resp(seq, resp) => {
                w.put_u8(ENV_RESP);
                w.put_varint(*seq);
                resp.encode(w);
            }
            Envelope::Push(push) => {
                w.put_u8(ENV_PUSH);
                push.encode(w);
            }
            Envelope::PushAck(ack) => {
                w.put_u8(ENV_PUSH_ACK);
                w.put_varint(*ack);
            }
        }
    }
}

impl Decode for Envelope {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            ENV_REQ => Envelope::Req(r.get_varint()?, Request::decode(r)?),
            ENV_RESP => Envelope::Resp(r.get_varint()?, Response::decode(r)?),
            ENV_PUSH => Envelope::Push(ServerPush::decode(r)?),
            ENV_PUSH_ACK => Envelope::PushAck(r.get_varint()?),
            t => return Err(DbError::Protocol(format!("unknown envelope tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_dlm::UpdateInfo;

    fn rt(e: Envelope) {
        let bytes = e.encode_to_bytes();
        assert_eq!(Envelope::decode_from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn envelope_roundtrips() {
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: None,
            },
        ));
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: Some(ResumeRequest {
                    token: 0xdead_beef,
                    incarnation: 42,
                    manifest: vec![(Oid::new(1), 3)],
                    cursors: vec![
                        ShardCursor {
                            shard: 0,
                            cursor: 1234,
                            log_incarnation: 0xfeed,
                        },
                        ShardCursor {
                            shard: 3,
                            cursor: 0,
                            log_incarnation: 0,
                        },
                        ShardCursor {
                            shard: 7,
                            cursor: u64::MAX,
                            log_incarnation: u64::MAX,
                        },
                    ],
                }),
            },
        ));
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: Some(ResumeRequest {
                    token: 1,
                    incarnation: 1,
                    manifest: vec![],
                    cursors: vec![],
                }),
            },
        ));
        rt(Envelope::Req(8, Request::Begin));
        rt(Envelope::Req(
            9,
            Request::Read {
                txn: Some(TxnId::new(3)),
                oid: Oid::new(4),
            },
        ));
        rt(Envelope::Req(
            10,
            Request::ReadMany {
                txn: None,
                oids: vec![Oid::new(1), Oid::new(2)],
            },
        ));
        rt(Envelope::Req(
            11,
            Request::Lock {
                txn: TxnId::new(3),
                oid: Oid::new(4),
                mode: WireLockMode::Exclusive,
            },
        ));
        rt(Envelope::Req(
            12,
            Request::Write {
                txn: TxnId::new(3),
                object: vec![1, 2, 3],
            },
        ));
        rt(Envelope::Req(
            13,
            Request::Commit {
                txn: TxnId::new(3),
                trace: 0,
            },
        ));
        rt(Envelope::Req(
            17,
            Request::Commit {
                txn: TxnId::new(4),
                trace: u64::MAX,
            },
        ));
        rt(Envelope::Req(
            14,
            Request::Extent {
                class: ClassId::new(2),
                include_subclasses: true,
            },
        ));
        rt(Envelope::Req(
            15,
            Request::DisplayLock {
                oids: vec![Oid::new(9)],
            },
        ));
        rt(Envelope::Req(
            16,
            Request::DisplayLockProjected {
                oids: vec![Oid::new(9), Oid::new(10)],
                attrs: vec![1, 3, 500],
                version: 6,
            },
        ));
        rt(Envelope::Req(20, Request::ReplayFrom { cursors: vec![] }));
        rt(Envelope::Req(
            21,
            Request::ReplayFrom {
                cursors: vec![(0, 17), (2, 0), (7, u64::MAX)],
            },
        ));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::CursorAck {
            shard: 0,
            seqno: 912,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::ReplayNeeded {
            shard: 2,
            from: 907,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Delta {
            oid: Oid::new(5),
            version: 2,
            changed: vec![(1, vec![7, 8])],
            trace: 41,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Batch(vec![
            DlmEvent::Updated(UpdateInfo::lazy(Oid::new(5))),
            DlmEvent::Delta {
                oid: Oid::new(6),
                version: 1,
                changed: vec![(0, vec![1])],
                trace: 0,
            },
        ]))));
        rt(Envelope::Resp(
            7,
            Response::HelloAck {
                client: ClientId::new(1),
                catalog: vec![0, 1],
                session: 99,
                incarnation: 7,
                epoch: 2,
                resumed: true,
                stale: vec![Oid::new(9)],
                replay_ok: true,
                shard_log_incarnations: vec![4242, 0, 977],
            },
        ));
        rt(Envelope::Resp(
            9,
            Response::Objects {
                objects: vec![Some(vec![1]), None],
            },
        ));
        rt(Envelope::Resp(
            10,
            Response::Error {
                kind: "deadlock".into(),
                message: "boom".into(),
            },
        ));
        rt(Envelope::Push(ServerPush::Callback {
            ack: 77,
            oids: vec![Oid::new(5)],
        }));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Updated(
            UpdateInfo::lazy(Oid::new(5)),
        ))));
        rt(Envelope::PushAck(77));
    }

    #[test]
    fn error_response_into_result() {
        let e = Response::Error {
            kind: "deadlock".into(),
            message: "x".into(),
        };
        assert!(matches!(e.into_result(), Err(DbError::Deadlock { .. })));
        let d = Response::Error {
            kind: "disconnected".into(),
            message: "gone".into(),
        };
        assert!(matches!(d.into_result(), Err(DbError::Disconnected)));
        let o = Response::Error {
            kind: "overloaded".into(),
            message: "shed".into(),
        };
        assert!(matches!(o.into_result(), Err(DbError::Overloaded)));
        assert!(Response::Ok.into_result().is_ok());
    }

    #[test]
    fn junk_envelope_rejected() {
        assert!(Envelope::decode_from_bytes(&[99, 1, 2]).is_err());
        assert!(Envelope::decode_from_bytes(&[]).is_err());
    }

    #[test]
    fn out_of_range_narrowing_is_rejected() {
        // A shard varint of 2^32 must not alias shard 0's seqno space —
        // neither in a replay request nor in a resume token.
        let mut w = WireWriter::new();
        w.put_u8(REQ_REPLAY_FROM);
        w.put_varint(1);
        w.put_varint(1 << 32);
        w.put_varint(5);
        assert!(Request::decode_from_bytes(&w.finish()).is_err());
        let mut w = WireWriter::new();
        w.put_u8(RESUME_VERSION);
        w.put_varint(1); // token
        w.put_varint(1); // incarnation
        w.put_varint(0); // manifest
        w.put_varint(1);
        w.put_varint(1 << 32);
        w.put_varint(5);
        w.put_varint(0);
        assert!(ResumeRequest::decode_from_bytes(&w.finish()).is_err());
        // Projected display lock: attribute index and version.
        for (attr, version) in [(1u64 << 16, 0u64), (0, 1 << 32)] {
            let mut w = WireWriter::new();
            w.put_u8(REQ_DLOCK_PROJECTED);
            vec![Oid::new(1)].encode(&mut w);
            w.put_varint(1);
            w.put_varint(attr);
            w.put_varint(version);
            assert!(Request::decode_from_bytes(&w.finish()).is_err());
        }
    }

    #[test]
    fn unknown_resume_token_version_rejected() {
        let ok = ResumeRequest {
            token: 1,
            incarnation: 1,
            manifest: vec![],
            cursors: vec![],
        };
        let mut bytes = ok.encode_to_bytes().to_vec();
        // Versions this build does not know, the retired pre-shard
        // layout (1) included.
        for version in [0, 1, 3] {
            bytes[0] = version;
            let err = ResumeRequest::decode_from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, DbError::Protocol(ref m) if m.contains("resume token version")));
        }
    }
}
