"""The protected relational email database (Section 6.2).

"The original database server accepts insert, update, and select requests
as RMI invocations on a Remote Database object. ... Adapting the
application to Snowflake required only minimal changes": the ssh socket
factory on the server object and a ``checkAuth()`` prefix on each remote
method — both of which our RMI stack applies automatically.

The schema is one ``messages`` table with per-mailbox ownership; a
mailbox owner (or anyone the owner delegates to — including a quoting
gateway) may read or write that mailbox.  ``mailbox_tag`` builds the
delegation restriction covering one mailbox.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.principals import KeyPrincipal, Principal
from repro.crypto.rsa import RsaKeyPair
from repro.db import Database, Eq, And, condition_from_sexp
from repro.rmi.registry import RmiServer
from repro.rmi.remote import RemoteObject
from repro.sexp import Atom, SExp, SList, sexp
from repro.tags import Tag, TagList, TagStar
from repro.tags.tag import TagAtom

OBJECT_NAME = "emaildb"


class EmailDatabaseServer:
    """The server side: DB engine + remote object, mounted on RMI."""

    def __init__(self, rmi_server: RmiServer, db_keypair: RsaKeyPair):
        self.rmi_server = rmi_server
        self.db_keypair = db_keypair
        self.issuer = KeyPrincipal(db_keypair.public)
        self.db = Database("email")
        self.messages = self.db.create_table(
            "messages", ["mailbox", "sender", "subject", "body", "unread"]
        )
        self.remote = RemoteObject(
            OBJECT_NAME,
            self.issuer,
            {
                "insert": self._insert,
                "select": self._select,
                "update": self._update,
                "delete": self._delete,
            },
        )
        rmi_server.export(self.remote)

    # Remote methods: first argument is always the mailbox, which is what
    # delegations restrict on (the args list's prefix).

    def _insert(self, mailbox, sender, subject, body) -> int:
        return self.messages.insert(
            {
                "mailbox": mailbox.text(),
                "sender": sender.text(),
                "subject": subject.text(),
                "body": body.text(),
                "unread": True,
            }
        )

    def _select(self, mailbox, *where) -> SExp:
        condition = Eq("mailbox", mailbox.text())
        if where:
            condition = And(condition, condition_from_sexp(where[0]))
        rows = self.messages.select(condition, order_by="rowid")
        return SList(
            [Atom("rows")]
            + [
                SList(
                    [
                        SList([Atom("rowid"), Atom(str(row["rowid"]))]),
                        SList([Atom("sender"), Atom(row["sender"])]),
                        SList([Atom("subject"), Atom(row["subject"])]),
                        SList([Atom("body"), Atom(row["body"])]),
                        SList([Atom("unread"), Atom("1" if row["unread"] else "0")]),
                    ]
                )
                for row in rows
            ]
        )

    def _update(self, mailbox, rowid, field, value) -> int:
        condition = And(
            Eq("mailbox", mailbox.text()), Eq("rowid", int(rowid.text()))
        )
        name = field.text()
        new_value: object = value.text()
        if name == "unread":
            new_value = value.text() == "1"
        return self.messages.update(condition, {name: new_value})

    def _delete(self, mailbox, rowid) -> int:
        return self.messages.delete(
            And(Eq("mailbox", mailbox.text()), Eq("rowid", int(rowid.text())))
        )

    @property
    def guard(self):
        """The RMI server's shared authorization backend — every access
        decision for this database runs through its pipeline (a single
        guard by default, or the ``backend`` the server was built
        with)."""
        return self.rmi_server.auth

    @property
    def audit(self):
        return self.guard.audit

    def mailbox_audit(self, mailbox: str):
        """Audit records whose invocation targeted ``mailbox`` (the
        args-prefix convention of the remote methods)."""
        records = []
        for record in self.audit.records:
            args = record.request.find("args") if hasattr(record.request, "find") else None
            if args is not None and len(args) > 1 and args.items[1].text() == mailbox:
                records.append(record)
        return records

    def mailbox_tag(self, mailbox: str) -> Tag:
        """Authority over one mailbox: any method whose first argument is
        this mailbox (the args list's prefix match does the scoping)."""
        return Tag(
            TagList(
                [
                    TagAtom("invoke"),
                    TagList([TagAtom("object"), TagAtom(OBJECT_NAME)]),
                    TagStar(),  # any method
                    TagList([TagAtom("args"), TagAtom(mailbox)]),
                ]
            )
        )


class EmailClient:
    """A thin client over a stub (whatever channel the stub rides)."""

    def __init__(self, stub):
        self.stub = stub

    def send(self, mailbox: str, sender: str, subject: str, body: str) -> int:
        return int(self.stub.invoke("insert", mailbox, sender, subject, body).text())

    def inbox(self, mailbox: str, where=None) -> List[Dict[str, object]]:
        args = [mailbox]
        if where is not None:
            args.append(where.to_sexp())
        rows_sexp = self.stub.invoke("select", *args)
        rows = []
        for row in rows_sexp.tail():
            entry: Dict[str, object] = {}
            for field in row:
                name = field.head()
                value = field.items[1].text()
                if name == "rowid":
                    entry[name] = int(value)
                elif name == "unread":
                    entry[name] = value == "1"
                else:
                    entry[name] = value
            rows.append(entry)
        return rows

    def mark_read(self, mailbox: str, rowid: int) -> int:
        return int(
            self.stub.invoke("update", mailbox, str(rowid), "unread", "0").text()
        )

    def delete(self, mailbox: str, rowid: int) -> int:
        return int(self.stub.invoke("delete", mailbox, str(rowid)).text())
