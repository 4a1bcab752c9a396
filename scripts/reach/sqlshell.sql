-- minisql's grammar contract: every statement form the parser accepts and
-- every meta command of cmd/sqlshell, fed to the shell on stdin. One
-- statement per line; no line of it may print "error:" (TestContractScript
-- in cmd/sqlshell runs it on :memory:, scripts/reach.sh on a directory).
CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, email VARCHAR(64) UNIQUE, age INT, score REAL, active BOOLEAN, avatar BLOB);
CREATE TABLE IF NOT EXISTS users (id INTEGER PRIMARY KEY);
CREATE TABLE notes (id INT PRIMARY KEY, body TEXT, weight FLOAT, pinned BOOL);
-- Eight more tables: on the 1 KiB pages scripts/reach.sh opens, the catalog
-- outgrows its root page.
CREATE TABLE log1 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log2 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log3 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log4 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log5 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log6 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log7 (id INTEGER PRIMARY KEY, line TEXT);
CREATE TABLE log8 (id INTEGER PRIMARY KEY, line TEXT);
CREATE INDEX users_age ON users (age);
CREATE UNIQUE INDEX users_name ON users (name);
CREATE INDEX IF NOT EXISTS users_age ON users (age);
INSERT INTO users VALUES (1, 'ada', 'ada@example.org', 36, 9.5, TRUE, x'00ff');
INSERT INTO users (id, name, email, age, score, active) VALUES (2, 'bob', 'bob@example.org', 25, 7.25, FALSE), (3, 'cy', NULL, 36, 8, TRUE);
INSERT OR REPLACE INTO users (id, name, age) VALUES (3, 'cyd', 41);
REPLACE INTO users (id, name, age, active) VALUES (4, 'dee', 25, TRUE);
INSERT INTO notes VALUES (1, 'first', 0.5, FALSE), (2, 'second', 1.5, TRUE);
.tables
.schema
.schema users
SELECT * FROM users;
SELECT id, name FROM users WHERE age = 25;
SELECT id FROM users WHERE name = 'bob';
SELECT id FROM users WHERE id = 4;
SELECT id, name FROM users WHERE id IN (1, 3, 5) OR age NOT IN (25, 36);
SELECT id FROM users WHERE email IS NULL AND NOT active = FALSE;
SELECT id FROM users WHERE email IS NOT NULL AND age BETWEEN 20 AND 30;
SELECT id FROM users WHERE score > 7.5 AND score <= 9.5 AND age >= 25 AND age < 40 AND id != 2 AND id <> 3;
SELECT id, age * 2 + 1 AS twice, score - 1, age / 5, age % 5, -age, name + '!' FROM users WHERE age IS NOT NULL ORDER BY age DESC, name ASC;
SELECT name who, LENGTH(name) AS len, SUBSTR(name, 2), SUBSTRING(name, 1, 2), LENGTH(avatar) FROM users ORDER BY id LIMIT 2 OFFSET 1;
SELECT COUNT(*) FROM users WHERE active = TRUE;
SELECT (age + 1) * 2 AS bumped FROM users ORDER BY age LIMIT 3;
UPDATE users SET age = age + 1, score = 9.75 WHERE name = 'bob';
UPDATE users SET active = FALSE;
DELETE FROM users WHERE id = 4;
.bind 5 'eve' 30 NULL TRUE 6.5 x'0a0b'
INSERT INTO users (id, name, age, email, active, score, avatar) VALUES (?, ?, ?, ?, ?, ?, ?);
.bind 30
SELECT name FROM users WHERE age = ?;
BEGIN;
INSERT INTO notes VALUES (3, 'kept', 2.5, TRUE);
COMMIT;
BEGIN TRANSACTION;
DELETE FROM notes;
ROLLBACK;
SELECT COUNT(*) FROM notes;
DROP INDEX users_age;
DROP INDEX IF EXISTS users_age;
DROP TABLE notes;
DROP TABLE IF EXISTS notes;
DELETE FROM users;
.tables
.pages
.cache
.quit
